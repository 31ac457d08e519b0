type backend =
  | Mem of {
      mutable pages : bytes array;  (* grows geometrically *)
    }
  | File of {
      path : string;
      fd : Unix.file_descr;  (* read-write, unbuffered *)
    }

let m_torn_writes = Metrics.counter "disk.torn_writes"
let m_checksum_failures = Metrics.counter "disk.checksum_failures"

type counters = {
  reads : int;
  writes : int;
  allocs : int;
}

exception Disk_error of string

type op =
  | Read
  | Write
  | Alloc

type fault =
  | No_fault
  | Fail of string
  | Torn of string

type t = {
  psize : int;
  backend : backend;
  mutable count : int;
  mutable reads : int;
  mutable writes : int;
  mutable allocs : int;
  mutable injector : (op -> int -> fault) option;
}
(* Every disk call in a multi-domain run goes through the owning buffer
   pool, which holds its table mutex across the call. *)
[@@guarded_by pool_table_lock]

let set_injector t injector = t.injector <- injector

let consult t op id =
  match t.injector with
  | None -> No_fault
  | Some f -> f op id

let label t =
  match t.backend with
  | Mem _ -> "<mem>"
  | File f -> f.path

(* Positioned full-length transfers on the one descriptor.  With no
   buffering between the backend and the file, a read always sees the
   last write to its page. *)
let pwrite fd ~off buf len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec go k = if k < len then go (k + Unix.write fd buf k (len - k)) in
  go 0

let pread t fd id =
  let buf = Bytes.create t.psize in
  ignore (Unix.lseek fd (id * t.psize) Unix.SEEK_SET);
  let rec go k =
    if k < t.psize then
      match Unix.read fd buf k (t.psize - k) with
      | 0 -> Xqdb_error.corrupt "Disk: short read of page %d of %s" id (label t)
      | n -> go (k + n)
  in
  go 0;
  buf

(* A fresh zeroed page, checksum already stamped: even a page that is
   allocated and then read before any write verifies cleanly. *)
let blank_page psize =
  let page = Bytes.make psize '\000' in
  Page.stamp_checksum page;
  page

let do_alloc t =
  (match consult t Alloc t.count with
   | No_fault -> ()
   | Fail msg | Torn msg -> raise (Disk_error msg));
  let id = t.count in
  t.count <- t.count + 1;
  t.allocs <- t.allocs + 1;
  (match t.backend with
   | Mem m ->
     if id >= Array.length m.pages then begin
       let bigger = Array.make (max 8 (2 * Array.length m.pages)) Bytes.empty in
       Array.blit m.pages 0 bigger 0 (Array.length m.pages);
       m.pages <- bigger
     end;
     m.pages.(id) <- blank_page t.psize
   | File f -> pwrite f.fd ~off:(id * t.psize) (blank_page t.psize) t.psize);
  id

let with_catalog_page t =
  (* Page 0 is reserved for the catalog. *)
  let id = do_alloc t in
  assert (id = 0);
  t

let check_page_size page_size =
  if page_size < 2 * Page.header_size then
    invalid_arg
      (Printf.sprintf "Disk: page size %d is too small for the %d-byte page header"
         page_size Page.header_size)

let in_memory ?(page_size = 4096) () =
  check_page_size page_size;
  with_catalog_page
    { psize = page_size;
      backend = Mem { pages = Array.make 8 Bytes.empty };
      count = 0;
      reads = 0;
      writes = 0;
      allocs = 0;
      injector = None }

let on_file ?(page_size = 4096) path =
  check_page_size page_size;
  let fd = Unix.openfile path [Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC] 0o644 in
  with_catalog_page
    { psize = page_size;
      backend = File { path; fd };
      count = 0;
      reads = 0;
      writes = 0;
      allocs = 0;
      injector = None }

let open_existing ?(page_size = 4096) path =
  check_page_size page_size;
  let fd = Unix.openfile path [Unix.O_RDWR; Unix.O_CLOEXEC] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  if size = 0 || size mod page_size <> 0 then begin
    Unix.close fd;
    invalid_arg
      (Printf.sprintf "Disk.open_existing: %s has %d bytes, not a whole number of %d-byte pages"
         path size page_size)
  end;
  { psize = page_size;
    backend = File { path; fd };
    count = size / page_size;
    reads = 0;
    writes = 0;
    allocs = 0;
    injector = None }

let page_size t = t.psize
let page_count t = t.count

let check_id t id =
  if id < 0 || id >= t.count then
    invalid_arg (Printf.sprintf "Disk: page %d out of range (count %d)" id t.count)

let alloc t = do_alloc t

let fetch t id =
  match t.backend with
  | Mem m -> Bytes.copy m.pages.(id)
  | File f -> pread t f.fd id

let read_page t id =
  check_id t id;
  (match consult t Read id with
   | No_fault -> ()
   | Fail msg | Torn msg -> raise (Disk_error msg));
  t.reads <- t.reads + 1;
  let buf = fetch t id in
  if not (Page.checksum_matches buf) then begin
    Metrics.incr m_checksum_failures;
    Xqdb_error.corrupt "Disk: checksum mismatch on page %d of %s" id (label t)
  end;
  buf

let read_page_raw t id =
  check_id t id;
  fetch t id

let persist t id buf len =
  match t.backend with
  | Mem m -> Bytes.blit buf 0 m.pages.(id) 0 len
  | File f -> pwrite f.fd ~off:(id * t.psize) buf len

let write_page t id buf =
  check_id t id;
  if Bytes.length buf <> t.psize then
    invalid_arg "Disk.write_page: buffer size mismatch";
  Page.stamp_checksum buf;
  match consult t Write id with
  | Fail msg -> raise (Disk_error msg)
  | Torn msg ->
    (* Torn (short) write: only the first half of the buffer reaches the
       disk before the fault, and one byte of that half is garbled in
       flight, so the page's stored checksum cannot match.  The damage is
       applied to a copy — the caller's buffer stays intact, so a retry
       with the same buffer repairs the page. *)
    t.writes <- t.writes + 1;
    Metrics.incr m_torn_writes;
    let half = Bytes.sub buf 0 (t.psize / 2) in
    let victim = t.psize / 4 in
    Bytes.set half victim (Char.chr (Char.code (Bytes.get half victim) lxor 0xff));
    persist t id half (t.psize / 2);
    raise (Disk_error msg)
  | No_fault ->
    t.writes <- t.writes + 1;
    persist t id buf t.psize

(* Every write has reached the OS by the time [write_page] returns, so
   there is nothing left to hand over (and, as ever, no fsync). *)
let sync _ = ()

let counters t = { reads = t.reads; writes = t.writes; allocs = t.allocs }

let total_ios t = t.reads + t.writes

let reset_counters t =
  t.reads <- 0;
  t.writes <- 0;
  t.allocs <- 0

let close t =
  match t.backend with
  | Mem _ -> ()
  | File f -> Unix.close f.fd
