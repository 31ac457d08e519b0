module A = Xqdb_tpm.Tpm_algebra
module Store = Xqdb_xasr.Node_store
module Xasr = Xqdb_xasr.Xasr
module Budget = Xqdb_storage.Budget

type ctx = {
  store : Store.t;
  pool : Xqdb_storage.Buffer_pool.t;
  mutable budget : Budget.t option;
  params : Tuple.params;
  batch_size : int;
  scan_domains : int;
  mutable work_left : int;
}
(* Owned by the query's driving domain; par_scan workers only read the
   immutable fields and return their batches to the owner. *)
[@@domain_local]

(* Budget polling is paced by work, not by output.  The joins and the
   disk spool charge one unit for each outer row they probe, each inner
   row they test, and each row they spool or replay; every
   [poll_every] units the budget is checked.  A join that emits nothing
   therefore still polls, and a censored run stops within [poll_every]
   units of work past its limit. *)
let poll_every = 64

let make_ctx ?budget ?(params = Tuple.no_params) ?(batch_size = 256)
    ?(scan_domains = 1) store =
  if batch_size < 1 then invalid_arg "Phys_op.make_ctx: batch_size must be positive";
  if scan_domains < 1 then invalid_arg "Phys_op.make_ctx: scan_domains must be positive";
  { store; pool = Store.pool store; budget; params; batch_size; scan_domains;
    work_left = poll_every }

let with_params ctx params = { ctx with params }

let set_budget ctx budget =
  ctx.budget <- budget;
  ctx.work_left <- poll_every

let tick ctx =
  match ctx.budget with
  | None -> ()
  | Some b -> Budget.check b

let work ctx =
  ctx.work_left <- ctx.work_left - 1;
  if ctx.work_left <= 0 then begin
    ctx.work_left <- poll_every;
    tick ctx
  end

(* Which preds/operands read parameter slots — decides whether a cache
   built below them survives a rebind. *)
let operand_param_dep = function
  | A.Oextern_in _ | A.Oextern_out _ -> true
  | A.Ocol _ | A.Oint _ | A.Ostr _ | A.Otype _ -> false

let preds_param_dep preds =
  List.exists (fun p -> A.pred_externs p <> []) preds

type info = {
  name : string;
  detail : string;
  children : info list;
}

type stats = {
  mutable rows : int;
  mutable batches : int;
  mutable ios : int;  (* inclusive: includes the children's I/O *)
  mutable seconds : float;  (* inclusive CPU seconds *)
}
[@@domain_local]

type t = {
  schema : Tuple.schema;
  next_batch : unit -> Tuple.batch option;
  reset : unit -> unit;
  info : info;
  stats : stats;
  kids : t list;
  ios_now : unit -> int;  (* disk I/O counter this operator is attributed against *)
  param_dep : bool;  (* does this subtree's output depend on parameter slots? *)
  clear : unit -> unit;  (* drop caches invalidated by a rebind (no recursion) *)
}

(* Every constructor goes through [make], which wraps [next_batch] and
   [reset] so the operator's stats accumulate rows and batches produced
   plus the page I/Os and CPU time spent inside its call windows.  The
   measurements are inclusive — a child only ever runs inside its
   parent's [next_batch] or [reset] — so the per-operator (exclusive)
   share is recovered in {!profile} by subtracting the children's
   inclusive totals.  Measuring per batch rather than per tuple is the
   vectorization payoff on the hot path: two I/O-counter reads and two
   clock reads per batch instead of per row.

   [param_dep] is the operator's own dependence on parameter slots; the
   stored flag is the subtree's (own or any kid's).  [clear] is the
   constructor's cache-invalidation hook — constructors that cache a
   parameter-independent subtree deliberately pass [ignore] so the cache
   survives rebinds (that survival is the point of templates). *)
let make ~schema ~info ?(kids = []) ?(param_dep = false) ?(clear = ignore) ~ios_now
    ~next_batch ~reset () =
  let param_dep = param_dep || List.exists (fun k -> k.param_dep) kids in
  let stats = { rows = 0; batches = 0; ios = 0; seconds = 0. } in
  (* Wall clock (not [Sys.time], which is process CPU time): operator
     profiles must attribute I/O wait to the operator that paid it, and
     under concurrent sessions CPU time would charge every session for
     every other session's work. *)
  let measured f () =
    let io0 = ios_now () in
    let t0 = Xqdb_storage.Monotonic.now () in
    match f () with
    | result ->
      stats.ios <- stats.ios + (ios_now () - io0);
      stats.seconds <- stats.seconds +. Xqdb_storage.Monotonic.elapsed_since t0;
      result
    | exception e ->
      stats.ios <- stats.ios + (ios_now () - io0);
      stats.seconds <- stats.seconds +. Xqdb_storage.Monotonic.elapsed_since t0;
      raise e
  in
  let next_batch =
    let inner = measured next_batch in
    fun () ->
      let result = inner () in
      (match result with
       | Some b ->
         stats.rows <- stats.rows + b.Tuple.len;
         stats.batches <- stats.batches + 1
       | None -> ());
      result
  in
  { schema; next_batch; reset = measured reset; info; stats; kids; ios_now; param_dep;
    clear }

let next_batch t = t.next_batch ()

let rec rebind t =
  List.iter rebind t.kids;
  t.clear ()

(* Operators never hold page pins between [next_batch] calls — every
   access goes through the pool's scoped [with_page] — so "closing" a
   drained tree is a sanitizer checkpoint, not a resource release: under
   a sanitizing pool it asserts the discipline actually held. *)
let close ctx op =
  ignore op;
  if Xqdb_storage.Buffer_pool.sanitizing ctx.pool then
    Xqdb_storage.Buffer_pool.assert_unpinned ~where:"Phys_op.close" ctx.pool

let rec zero_stats t =
  t.stats.rows <- 0;
  t.stats.batches <- 0;
  t.stats.ios <- 0;
  t.stats.seconds <- 0.;
  List.iter zero_stats t.kids

let ctx_ios ctx =
  let disk = Xqdb_storage.Buffer_pool.disk ctx.pool in
  fun () -> Xqdb_storage.Disk.total_ios disk

type profile = {
  op : string;
  args : string;
  rows : int;
  batches : int;
  ios : int;  (** inclusive page I/Os *)
  own_ios : int;  (** exclusive: [ios] minus the inputs' [ios] *)
  seconds : float;
  own_seconds : float;
  inputs : profile list;
}

let rec profile t =
  let inputs = List.map profile t.kids in
  let kid_ios = List.fold_left (fun acc p -> acc + p.ios) 0 inputs in
  let kid_seconds = List.fold_left (fun acc p -> acc +. p.seconds) 0. inputs in
  { op = t.info.name;
    args = t.info.detail;
    rows = t.stats.rows;
    batches = t.stats.batches;
    ios = t.stats.ios;
    own_ios = max 0 (t.stats.ios - kid_ios);
    seconds = t.stats.seconds;
    own_seconds = Float.max 0. (t.stats.seconds -. kid_seconds);
    inputs }

(* Sum two profiles of the same plan shape — used when a nested relfor
   re-instantiates the same operator tree once per outer binding and the
   engine wants one aggregate breakdown per compile-time site. *)
let rec merge_profile a b =
  { op = a.op;
    args = a.args;
    rows = a.rows + b.rows;
    batches = a.batches + b.batches;
    ios = a.ios + b.ios;
    own_ios = a.own_ios + b.own_ios;
    seconds = a.seconds +. b.seconds;
    own_seconds = a.own_seconds +. b.own_seconds;
    inputs = merge_inputs a.inputs b.inputs }

and merge_inputs xs ys =
  match (xs, ys) with
  | [], rest | rest, [] -> rest
  | x :: xs', y :: ys' -> merge_profile x y :: merge_inputs xs' ys'

let rec pp_profile ppf p =
  if String.equal p.args "" then Format.fprintf ppf "@[<v 2>%s" p.op
  else Format.fprintf ppf "@[<v 2>%s [%s]" p.op p.args;
  Format.fprintf ppf "  rows %d  batches %d  ios %d (own %d)  %.3fs (own %.3fs)" p.rows
    p.batches p.ios p.own_ios p.seconds p.own_seconds;
  List.iter (fun i -> Format.fprintf ppf "@,%a" pp_profile i) p.inputs;
  Format.fprintf ppf "@]"

let profile_to_string p = Format.asprintf "%a" pp_profile p

let rec pp_info ppf i =
  if String.equal i.detail "" then Format.fprintf ppf "@[<v 2>%s" i.name
  else Format.fprintf ppf "@[<v 2>%s [%s]" i.name i.detail;
  List.iter (fun c -> Format.fprintf ppf "@,%a" pp_info c) i.children;
  Format.fprintf ppf "@]"

let info_to_string i = Format.asprintf "%a" pp_info i

(* Reset [op] and hand every row of its output to [f], batch by batch. *)
let iter_rows op f =
  op.reset ();
  let rec go () =
    match op.next_batch () with
    | None -> ()
    | Some b ->
      for i = 0 to b.Tuple.len - 1 do
        f b i
      done;
      go ()
  in
  go ()

let drain op =
  let acc = ref [] in
  iter_rows op (fun b i -> acc := Tuple.batch_row b i :: !acc);
  List.rev !acc

let count op =
  op.reset ();
  let rec go n =
    match op.next_batch () with
    | None -> n
    | Some b -> go (n + b.Tuple.len)
  in
  go 0

let out_batch ctx schema = Tuple.batch_create ~width:(List.length schema) ctx.batch_size

(* A reusable batch of at least [cap] rows, reallocated only to grow. *)
let ensure_out out ~width cap =
  match !out with
  | Some b when b.Tuple.cap >= cap -> b
  | Some _ | None ->
    let b = Tuple.batch_create ~width (Int.max 1 cap) in
    out := Some b;
    b

let preds_detail preds =
  String.concat " ∧ " (List.map Xqdb_tpm.Tpm_print.pred_to_string preds)

(* --- access paths ------------------------------------------------------ *)

let cursor_op ~schema ~info ~param_dep ~ios_now ~make_cursor =
  let cursor = ref (make_cursor ()) in
  make ~schema ~info ~param_dep ~ios_now
    ~next_batch:(fun () -> !cursor ())
    ~reset:(fun () -> cursor := make_cursor ())
    ()

(* Write an XASR tuple's five columns into the batch's staging row
   (index [len]) without materializing a [Tuple.t]; the caller commits
   the row by bumping [len] once the predicates pass. *)
let stage_xasr b (xt : Xasr.tuple) =
  let row = b.Tuple.len in
  let cols = b.Tuple.cols in
  cols.(0).(row) <- Tuple.I xt.Xasr.nin;
  cols.(1).(row) <- Tuple.I xt.Xasr.nout;
  cols.(2).(row) <- Tuple.I xt.Xasr.parent_in;
  cols.(3).(row) <- Tuple.I (Xasr.node_type_code xt.Xasr.ntype);
  cols.(4).(row) <- Tuple.S xt.Xasr.value

(* Shared shape of the batch scans: a page-at-a-time cursor yields whole
   leaves of decoded XASR tuples; each [next_batch] stages rows straight
   into the output columns and evaluates the compiled predicates in
   place — no per-tuple [Tuple.t] is allocated on the scan path. *)
let xasr_page_scan ctx ~schema ~preds ~info ~make_pages =
  let keep = Tuple.compile_preds_batch ~params:ctx.params schema preds in
  let make_cursor () =
    let pages = make_pages () in
    let pending = ref [||] in
    let pos = ref 0 in
    let b = out_batch ctx schema in
    fun () ->
      tick ctx;
      Tuple.batch_clear b;
      let exhausted = ref false in
      while (not (Tuple.batch_full b)) && not !exhausted do
        if !pos < Array.length !pending then begin
          let xt = (!pending).(!pos) in
          incr pos;
          stage_xasr b xt;
          if keep b b.Tuple.len then b.Tuple.len <- b.Tuple.len + 1
        end
        else
          match pages () with
          | None -> exhausted := true
          | Some (_, arr) ->
            pending := arr;
            pos := 0
      done;
      if b.Tuple.len = 0 then None else Some b
  in
  cursor_op ~schema ~param_dep:(preds_param_dep preds) ~ios_now:(ctx_ios ctx) ~info
    ~make_cursor

let full_scan ctx alias ~preds =
  xasr_page_scan ctx ~schema:(Tuple.xasr_schema alias) ~preds
    ~info:
      { name = Printf.sprintf "scan XASR[%s]" alias;
        detail = preds_detail preds;
        children = [] }
    ~make_pages:(fun () -> Store.scan_all_pages ctx.store)

let struct_scan ctx alias ~label ~preds =
  xasr_page_scan ctx ~schema:(Tuple.xasr_schema alias) ~preds
    ~info:
      { name = Printf.sprintf "sidx-scan XASR[%s]" alias;
        detail =
          Printf.sprintf "struct(%s)%s" label
            (if preds = [] then "" else "; " ^ preds_detail preds);
        children = [] }
    ~make_pages:(fun () -> Store.struct_stream_pages ctx.store label)

let label_scan ctx alias ~ntype ~value ~preds =
  let schema = Tuple.xasr_schema alias in
  let keep = Tuple.compile_preds_batch ~params:ctx.params schema preds in
  let make_cursor () =
    (* The label index yields whole leaves of matching [in]s; each one
       still costs a primary fetch (that is the access path's nature),
       but staging and filtering stay allocation-free. *)
    let pages = Store.label_ins_pages ctx.store ntype value in
    let pending = ref [||] in
    let pos = ref 0 in
    let b = out_batch ctx schema in
    fun () ->
      tick ctx;
      Tuple.batch_clear b;
      let exhausted = ref false in
      while (not (Tuple.batch_full b)) && not !exhausted do
        if !pos < Array.length !pending then begin
          let nin = (!pending).(!pos) in
          incr pos;
          match Store.fetch ctx.store nin with
          | None ->
            Xqdb_storage.Xqdb_error.corrupt "Phys_op.label_scan: dangling label-index entry"
          | Some xt ->
            stage_xasr b xt;
            if keep b b.Tuple.len then b.Tuple.len <- b.Tuple.len + 1
        end
        else
          match pages () with
          | None -> exhausted := true
          | Some (_, arr) ->
            pending := arr;
            pos := 0
      done;
      if b.Tuple.len = 0 then None else Some b
  in
  cursor_op ~schema ~param_dep:(preds_param_dep preds) ~ios_now:(ctx_ios ctx)
    ~info:
      { name = Printf.sprintf "idx-scan XASR[%s]" alias;
        detail =
          Printf.sprintf "label(%s, %s)%s" (Xasr.node_type_name ntype) value
            (if preds = [] then "" else "; " ^ preds_detail preds);
        children = [] }
    ~make_cursor

let no_ios () = 0

let empty schema =
  make ~schema ~ios_now:no_ios
    ~info:{ name = "empty"; detail = "provably empty"; children = [] }
    ~next_batch:(fun () -> None)
    ~reset:(fun () -> ())
    ()

let singleton schema tuple =
  let b = Tuple.batch_create ~width:(List.length schema) 1 in
  Tuple.batch_push b tuple;
  let produced = ref false in
  make ~schema ~ios_now:no_ios
    ~info:{ name = "unit"; detail = ""; children = [] }
    ~next_batch:(fun () ->
      if !produced then None
      else begin
        produced := true;
        Some b
      end)
    ~reset:(fun () -> produced := false)
    ()

(* --- parallel scan ------------------------------------------------------ *)

(* Partitioned clustered scan: the document's [in] space [1, root.out]
   is split into one contiguous range per domain; each domain runs a
   page-at-a-time primary scan of its range against the shared
   (domain-safe) buffer pool and filters locally.  Concatenating the
   partitions in range order is document order, so the output is
   byte-identical to {!full_scan}.  The result is materialized once and
   replayed across [reset]s; the cache survives rebinds unless the
   predicates read parameter slots. *)
let par_scan_fill ctx ~keep ~domains () =
  if Store.tuple_count ctx.store = 0 then []
  else begin
    let root = Store.root_tuple ctx.store in
    let total = root.Xasr.nout in
    let n = max 1 (min domains total) in
    let chunk = (total + n - 1) / n in
    let ranges =
      List.init n (fun d ->
          let lo = 1 + (d * chunk) in
          let hi = min total (lo + chunk - 1) in
          (lo, hi))
      |> List.filter (fun (lo, hi) -> lo <= hi)
    in
    let scan_range (lo, hi) () =
      let pages = Store.scan_in_range_pages ctx.store ~lo ~hi in
      let acc = ref [] in
      let rec go () =
        tick ctx;
        match pages () with
        | None -> ()
        | Some (_, arr) ->
          Array.iter
            (fun xt ->
              let tuple = Tuple.of_xasr xt in
              if keep tuple then acc := tuple :: !acc)
            arr;
          go ()
      in
      go ();
      List.rev !acc
    in
    match ranges with
    | [ r ] -> scan_range r ()
    | ranges ->
      let handles = List.map (fun r -> Domain.spawn (scan_range r)) ranges in
      (* Join every domain before re-raising: an abandoned domain would
         keep scanning against the shared pool. *)
      let outcomes =
        List.map (fun h -> match Domain.join h with r -> Ok r | exception e -> Error e)
          handles
      in
      tick ctx;
      List.concat_map (function Ok part -> part | Error e -> raise e) outcomes
  end

(* --- disk spools --------------------------------------------------------- *)

(* Spool a child's rows to a fresh heap file: one unit of work per row. *)
let spool_fill ctx child =
  let hf = Xqdb_storage.Heap_file.create ctx.pool in
  iter_rows child (fun b i ->
      work ctx;
      ignore (Xqdb_storage.Heap_file.append hf (Tuple.encode_row b i)));
  hf

(* One pass over a spool, a page at a time: each page is read in one
   pool access and decoded into a reused column block.  A reader that
   pulls a record at a time touches its current page on every pull, so
   a [next_batch] call that resumes a pass paused on a page touches that
   page once more ({!spool_resume}) before going on: the buffer pool
   sees the same LRU sequence of pages as under such a reader, and the
   query does the same page I/O. *)
type spool_pass = {
  sp_pool : Xqdb_storage.Buffer_pool.t;
  sp_width : int;
  sp_block : Tuple.batch option ref;
  mutable sp_file : Xqdb_storage.Heap_file.t option;
  mutable sp_page : int;  (* page the block was read from; -1 before the first *)
  mutable sp_next : int;  (* next page of the chain; 0 after the last *)
}
[@@domain_local]

let spool_pass ctx width =
  { sp_pool = ctx.pool; sp_width = width; sp_block = ref None; sp_file = None;
    sp_page = -1; sp_next = 0 }

let spool_start p hf =
  p.sp_file <- Some hf;
  p.sp_page <- -1;
  p.sp_next <- Xqdb_storage.Heap_file.first_page hf

(* The next page's rows, or [None] at the end of the pass. *)
let spool_next p =
  match p.sp_file with
  | Some hf when p.sp_next <> 0 ->
    let records, next = Xqdb_storage.Heap_file.read_page hf p.sp_next in
    p.sp_page <- p.sp_next;
    p.sp_next <- next;
    let b = ensure_out p.sp_block ~width:p.sp_width (Array.length records) in
    Tuple.batch_clear b;
    Array.iter (Tuple.batch_push_encoded b) records;
    Some b
  | Some _ | None -> None

let touch pool page = Xqdb_storage.Buffer_pool.with_page pool page ignore

let spool_resume p = if p.sp_page >= 0 then touch p.sp_pool p.sp_page

(* Drain an operator into one column block: the in-memory inner of a
   join, decoded once and tested in place on every pass. *)
let drain_block op =
  op.reset ();
  let width = List.length op.schema in
  let rec go chunks n =
    match op.next_batch () with
    | None -> (List.rev chunks, n)
    | Some b ->
      let len = b.Tuple.len in
      go (Array.map (fun col -> Array.sub col 0 len) b.Tuple.cols :: chunks) (n + len)
  in
  match go [] 0 with
  | _, 0 -> Tuple.batch_create ~width 1
  | chunks, n ->
    { Tuple.cols = Array.init width (fun c -> Array.concat (List.map (fun ch -> ch.(c)) chunks));
      cap = n;
      len = n }

(* --- joins ------------------------------------------------------------- *)

type probe =
  | Probe_child of A.operand
  | Probe_desc of A.operand * A.operand
  | Probe_pk of A.operand

(* The outer side of a join, read in place: the current outer row is
   row [o_row] of [o_batch].  The child is pulled only when another row
   is wanted. *)
type outer = {
  o_src : t;
  mutable o_batch : Tuple.batch;
  mutable o_row : int;
}
[@@domain_local]

let outer_of src = { o_src = src; o_batch = Tuple.batch_create ~width:0 1; o_row = 0 }

let outer_restart o =
  o.o_src.reset ();
  o.o_batch <- Tuple.batch_create ~width:0 1;
  o.o_row <- 0

let outer_advance o =
  if o.o_row + 1 < o.o_batch.Tuple.len then begin
    o.o_row <- o.o_row + 1;
    true
  end
  else
    match o.o_src.next_batch () with
    | None ->
      o.o_batch <- Tuple.batch_create ~width:0 1;
      false
    | Some b ->
      o.o_batch <- b;
      o.o_row <- 0;
      true

(* The loop the nested-loop family shares.  For each outer row,
   [start batch row] begins a pass over the inner side and [next_block]
   yields the pass as windows [(block, first, last)] of rows; [test]
   decides each (outer row, inner row) pair in place, and matches are
   copied into the output batch.  A semijoin ends the pass at its first
   match.  A call that finds a pass paused by a full output batch calls
   [resume] before going on.  Each outer row and each inner row tested
   is one unit of {!work}. *)
let join_loop ctx ~semi ~schema ~test ~start ~next_block ~resume left =
  let outer = outer_of left in
  let out = out_batch ctx schema in
  let live = ref false in
  let block = ref out in
  let pos = ref 0 in
  let last = ref 0 in
  let next_batch () =
    Tuple.batch_clear out;
    if !live then resume ();
    let rec go () =
      if Tuple.batch_full out then ()
      else if not !live then begin
        if outer_advance outer then begin
          work ctx;
          start outer.o_batch outer.o_row;
          live := true;
          pos := 0;
          last := 0;
          go ()
        end
      end
      else if !pos < !last then begin
        let ob = outer.o_batch and oi = outer.o_row and ib = !block in
        let j = ref !pos in
        while !j < !last && !live && not (Tuple.batch_full out) do
          work ctx;
          let r = !j in
          incr j;
          if test ob oi ib r then begin
            Tuple.batch_copy_pair ob oi ib r out;
            if semi then live := false
          end
        done;
        pos := !j;
        go ()
      end
      else
        match next_block () with
        | None ->
          live := false;
          go ()
        | Some (b, first, stop) ->
          block := b;
          pos := first;
          last := stop;
          go ()
    in
    go ();
    if out.Tuple.len = 0 then None else Some out
  in
  let reset () =
    outer_restart outer;
    live := false
  in
  (next_batch, reset)

let whole b = Some (b, 0, b.Tuple.len)

let nl_join ?(materialize_inner = `Mem) ?(semi = false) ~preds left right ctx =
  let schema = left.schema @ right.schema in
  let keep = Tuple.compile_preds_pair ~params:ctx.params left.schema right.schema preds in
  (* Inner-side cache.  [clear] drops it on rebind, but only when the
     inner subtree reads parameter slots — a parameter-independent inner
     cache is valid for every outer binding and surviving rebinds is the
     template payoff. *)
  let start, next_block, resume, inner_clear, cache_detail =
    match materialize_inner with
    | `None ->
      ((fun _ _ -> right.reset ()), (fun () -> Option.bind (right.next_batch ()) whole),
       ignore, ignore, "recompute")
    | `Mem ->
      let cache = ref None in
      let pending = ref None in
      let start _ _ =
        match !cache with
        | Some b -> pending := Some b
        | None ->
          let b = drain_block right in
          cache := Some b;
          pending := Some b
      in
      let next () =
        let b = !pending in
        pending := None;
        Option.bind b whole
      in
      (start, next, ignore, (fun () -> cache := None), "inner in memory")
    | `Disk ->
      let spool = ref None in
      let pass = spool_pass ctx (List.length right.schema) in
      let start _ _ =
        match !spool with
        | Some hf -> spool_start pass hf
        | None ->
          let hf = spool_fill ctx right in
          spool := Some hf;
          spool_start pass hf
      in
      ( start,
        (fun () -> Option.bind (spool_next pass) whole),
        (fun () -> spool_resume pass),
        (fun () -> spool := None),
        "inner on disk" )
  in
  let next_batch, reset =
    join_loop ctx ~semi ~schema ~test:keep ~start ~next_block ~resume left
  in
  make ~schema ~ios_now:(ctx_ios ctx) ~kids:[left; right] ~next_batch ~reset
    ~param_dep:(preds_param_dep preds)
    ~clear:(if right.param_dep then inner_clear else ignore)
    ~info:
      { name = (if preds = [] then (if semi then "semi-product" else "product")
                else if semi then "semi-nl-join"
                else "nl-join");
        detail =
          (if preds = [] then cache_detail else preds_detail preds ^ "; " ^ cache_detail);
        children = [left.info; right.info] }
    ()

let bnl_join ?(block_size = 64) ~preds left right ctx =
  if block_size < 1 then invalid_arg "Phys_op.bnl_join: block_size must be positive";
  let schema = left.schema @ right.schema in
  let keep = Tuple.compile_preds_pair ~params:ctx.params left.schema right.schema preds in
  let outer = outer_of left in
  (* The inner is drained once; each block of outer rows replays it. *)
  let inner = ref None in
  let fill_inner () =
    match !inner with
    | Some b -> b
    | None ->
      let b = drain_block right in
      inner := Some b;
      b
  in
  let block = Tuple.batch_create ~width:(List.length left.schema) block_size in
  let ib = ref block in
  let r = ref 0 in
  let l = ref 0 in
  let exhausted = ref false in
  let refill_block () =
    Tuple.batch_clear block;
    while (not (Tuple.batch_full block)) && outer_advance outer do
      Tuple.batch_copy_row outer.o_batch outer.o_row block
    done;
    if block.Tuple.len = 0 then exhausted := true
    else begin
      ib := fill_inner ();
      r := 0;
      l := 0
    end
  in
  let out = out_batch ctx schema in
  (* Inner-major within a block: each inner row meets every row of the
     block before the next inner row is read. *)
  let next_batch () =
    Tuple.batch_clear out;
    let rec go () =
      if Tuple.batch_full out || !exhausted then ()
      else if block.Tuple.len = 0 || !r >= (!ib).Tuple.len then begin
        refill_block ();
        go ()
      end
      else if !l >= block.Tuple.len then begin
        incr r;
        l := 0;
        go ()
      end
      else begin
        let rb = !ib and ri = !r in
        while !l < block.Tuple.len && not (Tuple.batch_full out) do
          work ctx;
          if keep block !l rb ri then Tuple.batch_copy_pair block !l rb ri out;
          incr l
        done;
        go ()
      end
    in
    go ();
    if out.Tuple.len = 0 then None else Some out
  in
  let reset () =
    outer_restart outer;
    Tuple.batch_clear block;
    r := 0;
    l := 0;
    exhausted := false
  in
  make ~schema ~ios_now:(ctx_ios ctx) ~kids:[left; right] ~next_batch ~reset
    ~param_dep:(preds_param_dep preds)
    ~clear:(if right.param_dep then (fun () -> inner := None) else ignore)
    ~info:
      { name = (if preds = [] then "bnl-product" else "bnl-join");
        detail =
          (if preds = [] then Printf.sprintf "block %d" block_size
           else preds_detail preds ^ Printf.sprintf "; block %d" block_size);
        children = [left.info; right.info] }
    ()

(* A one-row block holding a fetched XASR tuple. *)
let stage_one blk xt =
  let b = ensure_out blk ~width:5 1 in
  Tuple.batch_clear b;
  stage_xasr b xt;
  b.Tuple.len <- 1;
  (b, 0, 1)

let inl_join ?(semi = false) ctx ~probe ~alias ~preds ~residual left =
  let inner_schema = Tuple.xasr_schema alias in
  let schema = left.schema @ inner_schema in
  let keep_inner = Tuple.compile_preds_batch ~params:ctx.params inner_schema preds in
  let keep_residual =
    Tuple.compile_preds_pair ~params:ctx.params left.schema inner_schema residual
  in
  let as_int = function
    | Tuple.I v -> v
    | Tuple.S s -> invalid_arg (Printf.sprintf "inl_join: non-integer probe value %S" s)
  in
  let operand op = Tuple.compile_operand_batch ~params:ctx.params left.schema op in
  let probe_param_dep =
    match probe with
    | Probe_child op | Probe_pk op -> operand_param_dep op
    | Probe_desc (i, o) -> operand_param_dep i || operand_param_dep o
  in
  let blk = ref None in
  (* Each probe yields the inner tuples of one outer row as blocks: a
     whole primary leaf for [Probe_desc], one fetched tuple otherwise.
     Page touches keep the order of the row-at-a-time index cursors. *)
  let start, next_block, resume =
    match probe with
    | Probe_child op ->
      let v = operand op in
      let pages = ref (fun () -> None) in
      let leaf = ref (-1) in
      let ins = ref [||] in
      let next = ref 0 in
      (* Set after a fetch: the row cursor touched its parent-index leaf
         again before the next entry and before leaving the leaf. *)
      let stale = ref false in
      let start ob oi =
        pages := Store.children_ins_pages ctx.store (as_int (v ob oi));
        ins := [||];
        next := 0;
        stale := false
      in
      let rec next_block () =
        if !stale then begin
          touch ctx.pool !leaf;
          stale := false
        end;
        if !next < Array.length !ins then begin
          let nin = (!ins).(!next) in
          incr next;
          match Store.fetch ctx.store nin with
          | None -> Xqdb_storage.Xqdb_error.corrupt "inl_join: dangling parent-index entry"
          | Some xt ->
            stale := true;
            Some (stage_one blk xt)
        end
        else
          match !pages () with
          | None -> None
          | Some (page, arr) ->
            leaf := page;
            ins := arr;
            next := 0;
            next_block ()
      in
      (start, next_block, ignore)
    | Probe_desc (in_op, out_op) ->
      let vin = operand in_op in
      let vout = operand out_op in
      let pages = ref (fun () -> None) in
      let leaf = ref (-1) in
      let start ob oi =
        pages :=
          Store.scan_in_range_pages ctx.store ~lo:(as_int (vin ob oi) + 1)
            ~hi:(as_int (vout ob oi) - 1);
        leaf := -1
      in
      let next_block () =
        match !pages () with
        | None -> None
        | Some (page, xts) ->
          leaf := page;
          let b = ensure_out blk ~width:5 (Array.length xts) in
          Tuple.batch_clear b;
          Array.iter
            (fun xt ->
              stage_xasr b xt;
              b.Tuple.len <- b.Tuple.len + 1)
            xts;
          whole b
      in
      (start, next_block, fun () -> if !leaf >= 0 then touch ctx.pool !leaf)
    | Probe_pk op ->
      let v = operand op in
      let key = ref None in
      let start ob oi = key := Some (as_int (v ob oi)) in
      let next_block () =
        let k = !key in
        key := None;
        Option.map (stage_one blk) (Option.bind k (Store.fetch ctx.store))
      in
      (start, next_block, ignore)
  in
  let next_batch, reset =
    join_loop ctx ~semi ~schema
      ~test:(fun ob oi ib r -> keep_inner ib r && keep_residual ob oi ib r)
      ~start ~next_block ~resume left
  in
  let probe_detail =
    match probe with
    | Probe_child op -> Printf.sprintf "%s.parent_in = %s" alias (Xqdb_tpm.Tpm_print.operand_to_string op)
    | Probe_desc (i, o) ->
      Printf.sprintf "%s.in in (%s, %s)" alias (Xqdb_tpm.Tpm_print.operand_to_string i)
        (Xqdb_tpm.Tpm_print.operand_to_string o)
    | Probe_pk op -> Printf.sprintf "%s.in = %s" alias (Xqdb_tpm.Tpm_print.operand_to_string op)
  in
  make ~schema ~ios_now:(ctx_ios ctx) ~kids:[left] ~next_batch ~reset
    ~param_dep:(probe_param_dep || preds_param_dep preds || preds_param_dep residual)
    ~info:
      { name = (if semi then "semi-inl-join" else "inl-join");
        detail =
          probe_detail
          ^ (if preds = [] then "" else "; " ^ preds_detail preds)
          ^ (if residual = [] then "" else "; residual " ^ preds_detail residual);
        children = [left.info] }
    ()

let replay_op ~schema ~info ~ios_now ~kids ~clear_on_rebind ~ctx ~fill =
  (* Materialize-on-first-use operator over a list-producing fill; the
     cached list is served out through a reusable batch. *)
  let cache = ref None in
  let serving = ref None in
  let ensure () =
    match !cache with
    | Some c -> c
    | None ->
      let c = fill () in
      cache := Some c;
      c
  in
  let out = out_batch ctx schema in
  (* A fill that must be dropped on rebind reads parameter slots, so the
     operator itself is parameter-dependent (kids contribute via make). *)
  make ~schema ~info ~ios_now ~kids ~param_dep:clear_on_rebind
    ~clear:
      (if clear_on_rebind then (fun () ->
           cache := None;
           serving := None)
       else ignore)
    ~next_batch:(fun () ->
      tick ctx;
      let items = match !serving with
        | Some items -> items
        | None -> ensure ()
      in
      Tuple.batch_clear out;
      let rec take = function
        | [] -> []
        | items when Tuple.batch_full out -> items
        | tuple :: rest ->
          Tuple.batch_push out tuple;
          take rest
      in
      let rest = take items in
      serving := Some rest;
      if out.Tuple.len = 0 then None else Some out)
    ~reset:(fun () -> serving := None)
    ()

let par_scan ctx ~domains alias ~preds =
  if domains < 1 then invalid_arg "Phys_op.par_scan: domains must be positive";
  let schema = Tuple.xasr_schema alias in
  let keep = Tuple.compile_preds ~params:ctx.params schema preds in
  replay_op ~schema ~ios_now:(ctx_ios ctx) ~kids:[] ~ctx
    ~clear_on_rebind:(preds_param_dep preds)
    ~info:
      { name = Printf.sprintf "par-scan XASR[%s]" alias;
        detail =
          Printf.sprintf "domains %d" domains
          ^ (if preds = [] then "" else "; " ^ preds_detail preds);
        children = [] }
    ~fill:(par_scan_fill ctx ~keep ~domains)

(* Staircase join over the structural index: the label's run is loaded
   once into a column block sorted by [in] (it never depends on
   parameters, so it survives rebinds like a cached nl-join inner); each
   outer row binary-searches its (lo, hi) interval and tests the
   contained entries in place.  Output order matches {!inl_join} with
   [Probe_desc]: outer-major, inner in document order — the property the
   index-vs-scan differential oracle relies on. *)
let struct_join ?(semi = false) ctx ~lo ~hi ~alias ~label ~preds ~residual left =
  let inner_schema = Tuple.xasr_schema alias in
  let schema = left.schema @ inner_schema in
  let keep_inner = Tuple.compile_preds_batch ~params:ctx.params inner_schema preds in
  let keep_residual =
    Tuple.compile_preds_pair ~params:ctx.params left.schema inner_schema residual
  in
  let as_int = function
    | Tuple.I v -> v
    | Tuple.S s -> invalid_arg (Printf.sprintf "struct_join: non-integer bound %S" s)
  in
  let vlo = Tuple.compile_operand_batch ~params:ctx.params left.schema lo in
  let vhi = Tuple.compile_operand_batch ~params:ctx.params left.schema hi in
  let run = ref None in
  let load () =
    match !run with
    | Some pair -> pair
    | None ->
      let pages = Store.struct_stream_pages ctx.store label in
      let rec go acc =
        match pages () with
        | None -> Array.concat (List.rev acc)
        | Some (_, xts) ->
          Array.iter (fun _ -> work ctx) xts;
          go (xts :: acc)
      in
      let xts = go [] in
      let b = Tuple.batch_create ~width:5 (Int.max 1 (Array.length xts)) in
      Array.iter
        (fun xt ->
          stage_xasr b xt;
          b.Tuple.len <- b.Tuple.len + 1)
        xts;
      let pair = (b, Array.map (fun xt -> xt.Xasr.nin) xts) in
      run := Some pair;
      pair
  in
  (* First index whose [in] exceeds [bound]. *)
  let lower_bound ins bound =
    let rec go a b =
      if a >= b then a
      else begin
        let mid = (a + b) / 2 in
        if ins.(mid) > bound then go a mid else go (mid + 1) b
      end
    in
    go 0 (Array.length ins)
  in
  let window = ref None in
  let start ob oi =
    let b, ins = load () in
    (* The entries with lo < in < hi. *)
    window :=
      Some (b, lower_bound ins (as_int (vlo ob oi)), lower_bound ins (as_int (vhi ob oi) - 1))
  in
  let next_block () =
    let w = !window in
    window := None;
    w
  in
  let next_batch, reset =
    join_loop ctx ~semi ~schema
      ~test:(fun ob oi ib r -> keep_inner ib r && keep_residual ob oi ib r)
      ~start ~next_block ~resume:ignore left
  in
  make ~schema ~ios_now:(ctx_ios ctx) ~kids:[left] ~next_batch ~reset
    ~param_dep:
      (operand_param_dep lo || operand_param_dep hi || preds_param_dep preds
      || preds_param_dep residual)
    ~info:
      { name = (if semi then "semi-struct-join" else "struct-join");
        detail =
          Printf.sprintf "%s.in in (%s, %s); struct(%s)" alias
            (Xqdb_tpm.Tpm_print.operand_to_string lo)
            (Xqdb_tpm.Tpm_print.operand_to_string hi)
            label
          ^ (if preds = [] then "" else "; " ^ preds_detail preds)
          ^ (if residual = [] then "" else "; residual " ^ preds_detail residual);
        children = [left.info] }
    ()

(* --- twig matching ------------------------------------------------------- *)

type twig_axis =
  | Twig_child
  | Twig_desc

type twig_step = {
  tw_alias : string;
  tw_label : string;
  tw_axis : twig_axis;
}

(* PathStack (Bruno et al.): one structural-index stream and one stack
   per step, streams merged by [in].  Stack entries are (tuple, partner
   index into the previous stack); each stack holds a chain of nested
   intervals, so a stream entry's ancestors with the previous step's
   label are exactly the un-popped entries below its partner pointer.
   Solutions are enumerated at the leaf step and sorted lexicographically
   by the aliases' [in] columns, which reproduces the order of the
   equivalent left-deep nested-loop plan. *)
let twig_match ctx ~anchor ~steps =
  (match steps with
  | [] -> invalid_arg "Phys_op.twig_match: no steps"
  | _ :: _ -> ());
  let schema = List.concat_map (fun s -> Tuple.xasr_schema s.tw_alias) steps in
  let steps_arr = Array.of_list steps in
  let k = Array.length steps_arr in
  let as_int = function
    | Tuple.I v -> v
    | Tuple.S s -> invalid_arg (Printf.sprintf "twig_match: non-integer bound %S" s)
  in
  let anchor_fn =
    match anchor with
    | None -> None
    | Some (lo, hi) ->
      (* Anchor operands are constants or externs — never columns — so
         they compile against the empty schema. *)
      let vlo = Tuple.compile_operand ~params:ctx.params [] lo in
      let vhi = Tuple.compile_operand ~params:ctx.params [] hi in
      Some (fun () -> (as_int (vlo [||]), as_int (vhi [||])))
  in
  let tuple_in t = as_int t.(0) in
  let tuple_out t = as_int t.(1) in
  let fill () =
    let lo, hi =
      match anchor_fn with
      | None -> (min_int, max_int)
      | Some f -> f ()
    in
    let dummy = ([||], -1) in
    let stacks = Array.init k (fun _ -> ref (Array.make 8 dummy)) in
    let lens = Array.make k 0 in
    let push i entry =
      let arr = !(stacks.(i)) in
      if lens.(i) >= Array.length arr then begin
        let bigger = Array.make (2 * Array.length arr) dummy in
        Array.blit arr 0 bigger 0 lens.(i);
        stacks.(i) := bigger
      end;
      !(stacks.(i)).(lens.(i)) <- entry;
      lens.(i) <- lens.(i) + 1
    in
    let get i j = !(stacks.(i)).(j) in
    let pop_closed nin =
      Array.iteri
        (fun i _ ->
          let rec go () =
            if lens.(i) > 0 then begin
              let t, _ = get i (lens.(i) - 1) in
              if tuple_out t < nin then begin
                lens.(i) <- lens.(i) - 1;
                go ()
              end
            end
          in
          go ())
        lens
    in
    (* One stream per step; heads merged by ascending [in], ties broken
       by step order (two steps over the same label see the same node). *)
    let streams =
      Array.map (fun s -> Store.struct_stream ctx.store s.tw_label) steps_arr
    in
    let heads = Array.map (fun stream -> stream ()) streams in
    let advance i = heads.(i) <- streams.(i) () in
    let next_entry () =
      let best = ref (-1) in
      Array.iteri
        (fun i head ->
          match head with
          | None -> ()
          | Some xt ->
            (match !best with
            | -1 -> best := i
            | b ->
              (match heads.(b) with
              | Some bxt when bxt.Xasr.nin <= xt.Xasr.nin -> ()
              | Some _ | None -> best := i)))
        heads;
      match !best with
      | -1 -> None
      | i ->
        let xt = heads.(i) in
        advance i;
        Option.map (fun xt -> (i, xt)) xt
    in
    (* Partner index of an entry joining step [i] (> 0): for Desc, the
       topmost previous-stack entry that is a *strict* ancestor (a
       same-label node at the same [in] is excluded); for Child, the
       entry whose [in] equals the parent pointer, searched downward. *)
    let partner_of i nin parent_in =
      match steps_arr.(i).tw_axis with
      | Twig_desc ->
        let top = lens.(i - 1) - 1 in
        if top < 0 then -1
        else begin
          let t, _ = get (i - 1) top in
          if tuple_in t = nin then top - 1 else top
        end
      | Twig_child ->
        let rec find j =
          if j < 0 then -1
          else begin
            let t, _ = get (i - 1) j in
            let pin = tuple_in t in
            if pin = parent_in then j else if pin < parent_in then -1 else find (j - 1)
          end
        in
        find (lens.(i - 1) - 1)
    in
    let solutions = ref [] in
    (* All chains from stack [i] entry [j] down to stack 0, leaf-first. *)
    let rec chains i j =
      let tuple, ptr = get i j in
      if i = 0 then [ [ tuple ] ]
      else begin
        let partners =
          match steps_arr.(i).tw_axis with
          | Twig_desc -> List.init (ptr + 1) (fun p -> p)
          | Twig_child -> [ ptr ]
        in
        List.concat_map
          (fun p -> List.map (fun chain -> tuple :: chain) (chains (i - 1) p))
          partners
      end
    in
    let emit_leaf tuple ptr =
      let leaf_chains =
        if k = 1 then [ [ tuple ] ]
        else begin
          let partners =
            match steps_arr.(k - 1).tw_axis with
            | Twig_desc -> List.init (ptr + 1) (fun p -> p)
            | Twig_child -> [ ptr ]
          in
          List.concat_map
            (fun p -> List.map (fun chain -> tuple :: chain) (chains (k - 2) p))
            partners
        end
      in
      List.iter
        (fun chain ->
          let parts = List.rev chain in
          let solution =
            match parts with
            | [] -> [||]
            | first :: rest -> List.fold_left Tuple.concat first rest
          in
          solutions := solution :: !solutions)
        leaf_chains
    in
    let rec consume () =
      tick ctx;
      match next_entry () with
      | None -> ()
      | Some (i, xt) ->
        let nin = xt.Xasr.nin in
        pop_closed nin;
        (if i = 0 then begin
           if lo < nin && xt.Xasr.nout < hi then
             if k = 1 then emit_leaf (Tuple.of_xasr xt) (-1)
             else push 0 (Tuple.of_xasr xt, -1)
         end
         else begin
           let ptr = partner_of i nin xt.Xasr.parent_in in
           if ptr >= 0 then
             if i = k - 1 then emit_leaf (Tuple.of_xasr xt) ptr
             else push i (Tuple.of_xasr xt, ptr)
         end);
        consume ()
    in
    consume ();
    (* Lexicographic (a1.in, ..., ak.in) order = the nested-loop plan's
       output order. *)
    let in_positions = Array.init k (fun i -> i * 5) in
    let by_ins t1 t2 =
      let rec go i =
        if i >= k then 0
        else begin
          let c = Int.compare (as_int t1.(in_positions.(i))) (as_int t2.(in_positions.(i))) in
          if c <> 0 then c else go (i + 1)
        end
      in
      go 0
    in
    List.sort by_ins !solutions
  in
  let clear_on_rebind =
    match anchor with
    | None -> false
    | Some (lo, hi) -> operand_param_dep lo || operand_param_dep hi
  in
  replay_op ~schema ~ios_now:(ctx_ios ctx) ~kids:[] ~clear_on_rebind ~ctx
    ~info:
      { name = "twig-match";
        detail =
          String.concat " / "
            (List.map
               (fun s ->
                 Printf.sprintf "%s%s:%s"
                   (match s.tw_axis with Twig_child -> "child " | Twig_desc -> "desc ")
                   s.tw_alias s.tw_label)
               steps)
          ^ (match anchor with
            | None -> ""
            | Some (lo, hi) ->
              Printf.sprintf "; anchor (%s, %s)"
                (Xqdb_tpm.Tpm_print.operand_to_string lo)
                (Xqdb_tpm.Tpm_print.operand_to_string hi));
        children = [] }
    ~fill

(* --- filter, project, sort, materialize -------------------------------- *)

(* Filter and project work batch-to-batch: rows of the child's batch are
   tested (and for project, remapped) column-wise into a reusable output
   batch sized off the child's, skipping the row-generator machinery
   entirely. *)

let filter ?params ~preds child =
  let keep = Tuple.compile_preds_batch ?params child.schema preds in
  let width = List.length child.schema in
  let out = ref None in
  let rec next_batch () =
    match child.next_batch () with
    | None -> None
    | Some cb ->
      let b = ensure_out out ~width cb.Tuple.cap in
      Tuple.batch_clear b;
      for i = 0 to cb.Tuple.len - 1 do
        if keep cb i then Tuple.batch_copy_row cb i b
      done;
      if b.Tuple.len = 0 then next_batch () else Some b
  in
  make ~schema:child.schema ~ios_now:child.ios_now ~kids:[child] ~next_batch
    ~reset:child.reset
    ~param_dep:(preds_param_dep preds)
    ~info:{ name = "filter"; detail = preds_detail preds; children = [child.info] }
    ()

let tuples_equal t1 t2 = Array.for_all2 Tuple.value_equal t1 t2

let project ~cols ~dedup child =
  let positions = Array.of_list (List.map (Tuple.position child.schema) cols) in
  let width = Array.length positions in
  let dedup_name, fresh_state =
    match dedup with
    | `No -> ("", fun () -> fun _ -> true)
    | `Adjacent ->
      ( "dedup:adjacent",
        fun () ->
          let prev = ref None in
          fun tuple ->
            match !prev with
            | Some p when tuples_equal p tuple -> false
            | Some _ | None ->
              prev := Some tuple;
              true )
    | `Hash ->
      ( "dedup:hash",
        fun () ->
          let seen = Hashtbl.create 256 in
          fun tuple ->
            let key = Tuple.encode tuple in
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.replace seen key ();
              true
            end )
  in
  let accept = ref (fresh_state ()) in
  let out = ref None in
  let rec next_batch () =
    match child.next_batch () with
    | None -> None
    | Some cb ->
      let b = ensure_out out ~width cb.Tuple.cap in
      Tuple.batch_clear b;
      for i = 0 to cb.Tuple.len - 1 do
        let projected = Array.map (fun p -> cb.Tuple.cols.(p).(i)) positions in
        if !accept projected then Tuple.batch_push b projected
      done;
      if b.Tuple.len = 0 then next_batch () else Some b
  in
  make ~schema:cols ~ios_now:child.ios_now ~kids:[child] ~next_batch
    ~reset:(fun () ->
      child.reset ();
      accept := fresh_state ())
    ~info:
      { name = "project";
        detail =
          String.concat ", "
            (List.map (fun c -> Printf.sprintf "%s.%s" c.A.rel (A.field_name c.A.field)) cols)
          ^ (if String.equal dedup_name "" then "" else "; " ^ dedup_name);
        children = [child.info] }
    ()

let key_positions schema key_cols =
  Array.of_list (List.map (Tuple.position schema) key_cols)

let compare_on positions t1 t2 =
  let rec go i =
    if i >= Array.length positions then 0
    else begin
      let c = Tuple.value_compare t1.(positions.(i)) t2.(positions.(i)) in
      if c <> 0 then c else go (i + 1)
    end
  in
  go 0

let sort ?(dedup = false) ~mode ~key_cols child ctx =
  let positions = key_positions child.schema key_cols in
  let dedup_pass tuples =
    if not dedup then tuples
    else begin
      let rec go prev = function
        | [] -> []
        | t :: rest ->
          (match prev with
           | Some p when compare_on positions p t = 0 -> go prev rest
           | Some _ | None -> t :: go (Some t) rest)
      in
      go None tuples
    end
  in
  let fill_mem () =
    dedup_pass (List.stable_sort (compare_on positions) (drain child))
  in
  let fill_external () =
    let compare_records a b =
      Xqdb_storage.Bytes_codec.compare_bytes (Tuple.key_of_encoded a) (Tuple.key_of_encoded b)
    in
    let sorter = Xqdb_storage.Ext_sort.create ctx.pool ~compare:compare_records in
    iter_rows child (fun b i ->
        Xqdb_storage.Ext_sort.feed sorter
          (Tuple.encode_with_key ~key_positions:positions (Tuple.batch_row b i)));
    let cursor = Xqdb_storage.Ext_sort.sorted_cursor sorter in
    let rec collect acc =
      tick ctx;
      match cursor () with
      | None -> List.rev acc
      | Some record -> collect (snd (Tuple.decode_keyed record) :: acc)
    in
    dedup_pass (collect [])
  in
  let fill = match mode with
    | `In_mem -> fill_mem
    | `External -> fill_external
  in
  replay_op ~schema:child.schema ~ios_now:(ctx_ios ctx) ~kids:[child] ~ctx
    ~clear_on_rebind:child.param_dep
    ~info:
      { name = (match mode with `In_mem -> "sort" | `External -> "ext-sort");
        detail =
          String.concat ", "
            (List.map (fun c -> Printf.sprintf "%s.%s" c.A.rel (A.field_name c.A.field)) key_cols)
          ^ (if dedup then "; dedup" else "");
        children = [child.info] }
    ~fill

let btree_sort ?(dedup = true) ~key_cols child ctx =
  let positions = key_positions child.schema key_cols in
  let fill () =
    let bt = Xqdb_storage.Btree.create ctx.pool in
    let seq = ref 0 in
    iter_rows child (fun b i ->
        tick ctx;
        let tuple = Tuple.batch_row b i in
        let key =
          if dedup then Tuple.key_of_encoded (Tuple.encode_with_key ~key_positions:positions tuple)
          else begin
            (* Non-dedup mode appends a sequence number as tiebreak. *)
            incr seq;
            let buf = Buffer.create 48 in
            Buffer.add_bytes buf
              (Tuple.key_of_encoded (Tuple.encode_with_key ~key_positions:positions tuple));
            Xqdb_storage.Bytes_codec.key_int buf !seq;
            Buffer.to_bytes buf
          end
        in
        Xqdb_storage.Btree.insert bt ~key ~value:(Tuple.encode tuple));
    let cursor = Xqdb_storage.Btree.scan_range bt in
    let rec collect acc =
      tick ctx;
      match cursor () with
      | None -> List.rev acc
      | Some (_, value) -> collect (Tuple.decode value :: acc)
    in
    collect []
  in
  replay_op ~schema:child.schema ~ios_now:(ctx_ios ctx) ~kids:[child] ~ctx
    ~clear_on_rebind:child.param_dep
    ~info:
      { name = "btree-sort";
        detail =
          String.concat ", "
            (List.map (fun c -> Printf.sprintf "%s.%s" c.A.rel (A.field_name c.A.field)) key_cols)
          ^ (if dedup then "; dedup" else "");
        children = [child.info] }
    ~fill

let materialize where child ctx =
  match where with
  | `Mem ->
    replay_op ~schema:child.schema ~ios_now:(ctx_ios ctx) ~kids:[child] ~ctx
      ~clear_on_rebind:child.param_dep
      ~info:{ name = "materialize"; detail = "memory"; children = [child.info] }
      ~fill:(fun () -> drain child)
  | `Disk ->
    (* The spool is filled on the first [reset] (or call) and replayed a
       page at a time on every pass; a call resuming a pass touches its
       page again, as {!spool_pass} explains. *)
    let spool = ref None in
    let pass = spool_pass ctx (List.length child.schema) in
    let live = ref false in
    let started = ref false in
    let block = ref None in
    let pos = ref 0 in
    let begin_pass () =
      started := true;
      (match !spool with
       | Some hf -> spool_start pass hf
       | None ->
         let hf = spool_fill ctx child in
         spool := Some hf;
         spool_start pass hf);
      live := true;
      block := None;
      pos := 0
    in
    let out = out_batch ctx child.schema in
    let next_batch () =
      if not !started then begin_pass () else if !live then spool_resume pass;
      Tuple.batch_clear out;
      let rec go () =
        if Tuple.batch_full out || not !live then ()
        else
          match !block with
          | Some b when !pos < b.Tuple.len ->
            while !pos < b.Tuple.len && not (Tuple.batch_full out) do
              work ctx;
              Tuple.batch_copy_row b !pos out;
              incr pos
            done;
            go ()
          | Some _ | None ->
            (match spool_next pass with
             | None -> live := false
             | Some b ->
               block := Some b;
               pos := 0);
            go ()
      in
      go ();
      if out.Tuple.len = 0 then None else Some out
    in
    make ~schema:child.schema ~ios_now:(ctx_ios ctx) ~kids:[child]
      ~clear:
        (if child.param_dep then (fun () ->
             spool := None;
             live := false;
             started := false)
         else ignore)
      ~info:{ name = "materialize"; detail = "disk"; children = [child.info] }
      ~next_batch ~reset:begin_pass ()
