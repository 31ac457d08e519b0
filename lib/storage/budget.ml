type t = {
  disk : Disk.t;
  base_ios : int;
  start : float;
  max_page_ios : int option;
  max_seconds : float option;
  (* Absolute wall-clock instant ({!Monotonic.now} scale) after which
     the request is dead.  Unlike [max_seconds] — a relative cap the
     server clamps — the deadline travels with the request, so queue
     time before execution counts against it. *)
  deadline : float option;
}

exception Exhausted of string
exception Deadline_exceeded of string

let ios_of = Disk.total_ios

let create ?max_page_ios ?max_seconds ?deadline disk =
  (* Wall clock, not [Sys.time]: a time budget bounds how long the
     caller waits, which includes I/O wait and — under concurrent
     sessions — time spent blocked on latches. *)
  { disk;
    base_ios = ios_of disk;
    start = Monotonic.now ();
    max_page_ios;
    max_seconds;
    deadline }

let unlimited disk = create disk
let page_ios t = ios_of t.disk - t.base_ios
let elapsed t = Monotonic.elapsed_since t.start

let check t =
  (* Deadline first: a request that is already dead should be censored
     as [Timeout] even if a budget cap would also have tripped. *)
  (match t.deadline with
   | Some d ->
     let now = Monotonic.now () in
     if now > d then
       raise
         (Deadline_exceeded
            (Printf.sprintf "deadline exceeded (%.3fs past it)" (now -. d)))
   | None -> ());
  (match t.max_page_ios with
   | Some cap when page_ios t > cap ->
     raise (Exhausted (Printf.sprintf "page I/O budget exceeded (%d > %d)" (page_ios t) cap))
   | Some _ | None -> ());
  match t.max_seconds with
  | Some cap when elapsed t > cap ->
    raise (Exhausted (Printf.sprintf "time budget exceeded (%.2fs > %.2fs)" (elapsed t) cap))
  | Some _ | None -> ()
