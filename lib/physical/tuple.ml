module A = Xqdb_tpm.Tpm_algebra
module Codec = Xqdb_storage.Bytes_codec

type value =
  | I of int
  | S of string

type t = value array

type schema = A.col list

let value_equal v1 v2 =
  match v1, v2 with
  | I a, I b -> Int.equal a b
  | S a, S b -> String.equal a b
  | I _, S _ | S _, I _ -> false

let value_compare v1 v2 =
  match v1, v2 with
  | I a, I b -> Int.compare a b
  | S a, S b -> String.compare a b
  | I _, S _ -> -1
  | S _, I _ -> 1

let position schema col =
  let rec go i = function
    | [] -> raise Not_found
    | c :: rest -> if c = col then i else go (i + 1) rest
  in
  go 0 schema

let concat = Array.append

let ground_operand env = function
  | A.Oextern_in x -> A.Oint (fst (env x))
  | A.Oextern_out x -> A.Oint (snd (env x))
  | (A.Ocol _ | A.Oint _ | A.Ostr _ | A.Otype _) as op -> op

(* Parameter slots: a template's outer-variable references compile to
   closures that read these mutable cells, so re-binding a plan to a new
   outer environment is a handful of writes, not a recompilation. *)

type param_slot = {
  mutable bound_in : int;
  mutable bound_out : int;
}
[@@domain_local]

type params = (Xqdb_xq.Xq_ast.var * param_slot) list

let no_params : params = []

let make_params vars : params =
  List.sort_uniq String.compare vars
  |> List.map (fun v -> (v, { bound_in = 0; bound_out = 0 }))

let param_vars (params : params) = List.map fst params

let bind_params (params : params) env =
  List.iter
    (fun (v, slot) ->
      let nin, nout = env v in
      slot.bound_in <- nin;
      slot.bound_out <- nout)
    params

let compile_operand ?(params = no_params) schema operand =
  let slot x =
    match List.assoc_opt x params with
    | Some s -> s
    | None ->
      invalid_arg
        (Printf.sprintf "Tuple.compile_operand: unresolved external %s"
           (Xqdb_xq.Xq_print.var x))
  in
  match operand with
  | A.Ocol c ->
    let i = position schema c in
    fun tuple -> tuple.(i)
  | A.Oint v -> Fun.const (I v)
  | A.Ostr s -> Fun.const (S s)
  | A.Otype ty -> Fun.const (I (Xqdb_xasr.Xasr.node_type_code ty))
  | A.Oextern_in x ->
    let s = slot x in
    fun _ -> I s.bound_in
  | A.Oextern_out x ->
    let s = slot x in
    fun _ -> I s.bound_out

let compile_pred ?params schema (p : A.pred) =
  let left = compile_operand ?params schema p.A.left in
  let right = compile_operand ?params schema p.A.right in
  match p.A.op with
  | A.Eq -> fun tuple -> value_equal (left tuple) (right tuple)
  | A.Lt -> fun tuple -> value_compare (left tuple) (right tuple) < 0
  | A.Gt -> fun tuple -> value_compare (left tuple) (right tuple) > 0

let compile_preds ?params schema preds =
  let compiled = List.map (compile_pred ?params schema) preds in
  fun tuple -> List.for_all (fun p -> p tuple) compiled

(* Columnar batches: one value array per schema column plus a fill
   length, over backing storage an operator allocates once and reuses
   across [next_batch] calls.  A consumer must finish with a batch before
   asking its producer for the next one — the arrays are overwritten in
   place. *)

type batch = {
  cols : value array array;
  cap : int;
  mutable len : int;
}
(* Producer-owned: a batch is filled and consumed on one domain. *)
[@@domain_local]

let batch_create ~width cap =
  if cap <= 0 then invalid_arg "Tuple.batch_create: capacity must be positive";
  { cols = Array.init width (fun _ -> Array.make cap (I 0)); cap; len = 0 }

let batch_width b = Array.length b.cols
let batch_clear b = b.len <- 0
let batch_full b = b.len >= b.cap

let batch_push b tuple =
  let row = b.len in
  Array.iteri (fun c col -> col.(row) <- tuple.(c)) b.cols;
  b.len <- row + 1

let batch_row b i =
  Array.map (fun col -> col.(i)) b.cols

let batch_copy_row src i dst =
  let row = dst.len in
  Array.iteri (fun c col -> col.(row) <- src.cols.(c).(i)) dst.cols;
  dst.len <- row + 1

let batch_of_list ~width tuples =
  let cap = max 1 (List.length tuples) in
  let b = batch_create ~width cap in
  List.iter (batch_push b) tuples;
  b

let batch_to_list b =
  List.init b.len (batch_row b)

(* Batch-compiled operands and predicates read column arrays directly —
   no per-row tuple is materialized on the scan hot paths. *)

let compile_operand_batch ?(params = no_params) schema operand =
  let slot x =
    match List.assoc_opt x params with
    | Some s -> s
    | None ->
      invalid_arg
        (Printf.sprintf "Tuple.compile_operand_batch: unresolved external %s"
           (Xqdb_xq.Xq_print.var x))
  in
  match operand with
  | A.Ocol c ->
    let i = position schema c in
    fun b row -> b.cols.(i).(row)
  | A.Oint v ->
    let v = I v in
    fun _ _ -> v
  | A.Ostr s ->
    let v = S s in
    fun _ _ -> v
  | A.Otype ty ->
    let v = I (Xqdb_xasr.Xasr.node_type_code ty) in
    fun _ _ -> v
  | A.Oextern_in x ->
    let s = slot x in
    fun _ _ -> I s.bound_in
  | A.Oextern_out x ->
    let s = slot x in
    fun _ _ -> I s.bound_out

let compile_pred_batch ?params schema (p : A.pred) =
  let left = compile_operand_batch ?params schema p.A.left in
  let right = compile_operand_batch ?params schema p.A.right in
  match p.A.op with
  | A.Eq -> fun b row -> value_equal (left b row) (right b row)
  | A.Lt -> fun b row -> value_compare (left b row) (right b row) < 0
  | A.Gt -> fun b row -> value_compare (left b row) (right b row) > 0

let compile_preds_batch ?params schema preds =
  let rec all ps b row =
    match ps with
    | [] -> true
    | p :: rest -> p b row && all rest b row
  in
  match List.map (compile_pred_batch ?params schema) preds with
  | [p] -> p
  | ps -> fun b row -> all ps b row

(* Two-batch predicates for joins: operands read the outer batch's row
   or the inner batch's row in place, so a candidate pair is never
   concatenated.  Columns resolve against [left @ right] exactly as
   {!compile_preds} resolves them against the concatenated schema. *)

let compile_operand_pair ?params left right operand =
  match operand with
  | A.Ocol c ->
    let i = position (left @ right) c in
    let lw = List.length left in
    if i < lw then fun lb li _ _ -> lb.cols.(i).(li)
    else begin
      let j = i - lw in
      fun _ _ rb ri -> rb.cols.(j).(ri)
    end
  | A.Oint _ | A.Ostr _ | A.Otype _ | A.Oextern_in _ | A.Oextern_out _ ->
    let v = compile_operand_batch ?params [] operand in
    fun lb li _ _ -> v lb li

let compile_pred_pair ?params left right (p : A.pred) =
  let l = compile_operand_pair ?params left right p.A.left in
  let r = compile_operand_pair ?params left right p.A.right in
  match p.A.op with
  | A.Eq -> fun lb li rb ri -> value_equal (l lb li rb ri) (r lb li rb ri)
  | A.Lt -> fun lb li rb ri -> value_compare (l lb li rb ri) (r lb li rb ri) < 0
  | A.Gt -> fun lb li rb ri -> value_compare (l lb li rb ri) (r lb li rb ri) > 0

let compile_preds_pair ?params left right preds =
  let rec all ps lb li rb ri =
    match ps with
    | [] -> true
    | p :: rest -> p lb li rb ri && all rest lb li rb ri
  in
  match List.map (compile_pred_pair ?params left right) preds with
  | [p] -> p
  | ps -> fun lb li rb ri -> all ps lb li rb ri

let batch_copy_pair lb li rb ri dst =
  let row = dst.len in
  let lw = Array.length lb.cols in
  for c = 0 to lw - 1 do
    dst.cols.(c).(row) <- lb.cols.(c).(li)
  done;
  for c = 0 to Array.length rb.cols - 1 do
    dst.cols.(lw + c).(row) <- rb.cols.(c).(ri)
  done;
  dst.len <- row + 1

let xasr_schema alias =
  [ A.col alias A.In;
    A.col alias A.Out;
    A.col alias A.Parent_in;
    A.col alias A.Type_;
    A.col alias A.Value ]

let of_xasr (x : Xqdb_xasr.Xasr.tuple) =
  [| I x.Xqdb_xasr.Xasr.nin;
     I x.nout;
     I x.parent_in;
     I (Xqdb_xasr.Xasr.node_type_code x.ntype);
     S x.value |]

let project positions tuple = Array.map (fun i -> tuple.(i)) positions

let write_value buf = function
  | I x ->
    Buffer.add_char buf '\000';
    Codec.write_uvarint buf x
  | S s ->
    Buffer.add_char buf '\001';
    Codec.write_string buf s

let encode tuple =
  let buf = Buffer.create 32 in
  Codec.write_uvarint buf (Array.length tuple);
  Array.iter (write_value buf) tuple;
  Buffer.to_bytes buf

let encode_row b i =
  let buf = Buffer.create 32 in
  Codec.write_uvarint buf (Array.length b.cols);
  Array.iter (fun col -> write_value buf col.(i)) b.cols;
  Buffer.to_bytes buf

let read_value r =
  let tag = Bytes.get r.Codec.data r.Codec.pos in
  r.Codec.pos <- r.Codec.pos + 1;
  match tag with
  | '\000' -> I (Codec.read_uvarint r)
  | '\001' -> S (Codec.read_string r)
  | c -> invalid_arg (Printf.sprintf "Tuple.decode: bad tag %C" c)

let decode_reader r =
  let n = Codec.read_uvarint r in
  Array.init n (fun _ -> read_value r)

let decode data = decode_reader (Codec.reader data)

let batch_push_encoded b data =
  let r = Codec.reader data in
  let n = Codec.read_uvarint r in
  if n <> Array.length b.cols then
    invalid_arg
      (Printf.sprintf "Tuple.batch_push_encoded: %d values for %d columns" n
         (Array.length b.cols));
  let row = b.len in
  for c = 0 to n - 1 do
    b.cols.(c).(row) <- read_value r
  done;
  b.len <- row + 1

let encode_with_key ~key_positions tuple =
  (* Layout: uvarint key length, key bytes, then the encoded tuple.
     Compare by the {e extracted} key bytes, not the whole record — the
     length prefix is not order-preserving for variable-width keys. *)
  let key_buf = Buffer.create 48 in
  Array.iter
    (fun i ->
      match tuple.(i) with
      | I v -> Codec.key_int key_buf v
      | S s -> Codec.key_string key_buf s)
    key_positions;
  let out = Buffer.create 80 in
  Codec.write_uvarint out (Buffer.length key_buf);
  Buffer.add_buffer out key_buf;
  Buffer.add_bytes out (encode tuple);
  Buffer.to_bytes out

let decode_keyed data =
  let r = Codec.reader data in
  let klen = Codec.read_uvarint r in
  let key = Bytes.sub r.Codec.data r.Codec.pos klen in
  r.Codec.pos <- r.Codec.pos + klen;
  (key, decode_reader r)

let key_of_encoded data =
  let r = Codec.reader data in
  let klen = Codec.read_uvarint r in
  Bytes.sub r.Codec.data r.Codec.pos klen

let pp ppf tuple =
  Format.fprintf ppf "(%s)"
    (String.concat ", "
       (Array.to_list
          (Array.map
             (function
               | I v -> string_of_int v
               | S s -> Printf.sprintf "%S" s)
             tuple)))
