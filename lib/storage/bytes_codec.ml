type reader = {
  data : bytes;
  mutable pos : int;
}
[@@domain_local]

let reader data = { data; pos = 0 }

let write_uvarint buf v =
  if v < 0 then invalid_arg "Bytes_codec.write_uvarint: negative";
  let rec go v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7F)));
      go (v lsr 7)
    end
  in
  go v

(* A loop rather than a local recursive function: the closure a local
   [let rec] captures would be allocated on every call, and spool replay
   decodes several varints per row. *)
let read_uvarint r =
  let acc = ref 0 in
  let shift = ref 0 in
  let more = ref true in
  while !more do
    let byte = Char.code (Bytes.get r.data r.pos) in
    r.pos <- r.pos + 1;
    acc := !acc lor ((byte land 0x7F) lsl !shift);
    shift := !shift + 7;
    more := byte land 0x80 <> 0
  done;
  !acc

let write_string buf s =
  write_uvarint buf (String.length s);
  Buffer.add_string buf s

let read_string r =
  let len = read_uvarint r in
  let s = Bytes.sub_string r.data r.pos len in
  r.pos <- r.pos + len;
  s

let key_int buf v =
  if v < 0 then invalid_arg "Bytes_codec.key_int: negative";
  for byte = 7 downto 0 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * byte)) land 0xFF))
  done

let read_key_int r =
  let v = ref 0 in
  for _ = 1 to 8 do
    v := (!v lsl 8) lor Char.code (Bytes.get r.data r.pos);
    r.pos <- r.pos + 1
  done;
  !v

(* '\000' in the payload becomes "\000\255"; the terminator "\000\000"
   is then smaller than any continuation, preserving prefix order. *)
let key_string buf s =
  String.iter
    (fun c ->
      if c = '\000' then Buffer.add_string buf "\000\255"
      else Buffer.add_char buf c)
    s;
  Buffer.add_string buf "\000\000"

let read_key_string r =
  let out = Buffer.create 16 in
  let rec go () =
    let c = Bytes.get r.data r.pos in
    r.pos <- r.pos + 1;
    if c <> '\000' then begin
      Buffer.add_char out c;
      go ()
    end
    else begin
      let c2 = Bytes.get r.data r.pos in
      r.pos <- r.pos + 1;
      if c2 = '\255' then begin
        Buffer.add_char out '\000';
        go ()
      end
      (* else: terminator *)
    end
  in
  go ();
  Buffer.contents out

let compare_bytes = Bytes.compare
