(* Shared plumbing of the benchmark: clocks, order statistics, seeded
   input derivation, the metric sheet, failure bookkeeping and the
   one-line JSON result. *)

let now = Unix.gettimeofday

(* [timed f] is [(f (), seconds f took)]. *)
let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let sorted_floats l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile over a sorted array: the smallest sample with
   at least [q] of the samples at or below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let median l =
  let a = sorted_floats l in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum_floats l = List.fold_left ( +. ) 0. l

let ratio num den = if den = 0. then 0. else num /. den

(* A sub-seed of the benchmark's [--seed] for one input: distinct inputs
   draw from distinct streams. *)
let derive seed tag =
  let st = Random.State.make [| seed; Hashtbl.hash tag |] in
  Random.State.bits st

(* The OCaml GC's high-water mark of the major heap, in MiB. *)
let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. (1024. *. 1024.)

(* ---- the metric sheet ---- *)

type sheet = { mutable rows : (string * string * float) list }

let sheet () = { rows = [] }

let put sheet name unit value = sheet.rows <- (name, unit, value) :: sheet.rows

let rows sheet = List.rev sheet.rows

(* ---- outcome bookkeeping ---- *)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (* newest first *)
}

let outcome () = { attempted = 0; failed = 0; problems = [] }

(* A failed operation: a non-Ok or unexpected status, a guard trip, or
   an output that differs from its oracle.  Only the first few messages
   are kept. *)
let failure o msg =
  o.failed <- o.failed + 1;
  if List.length o.problems < 20 then o.problems <- msg :: o.problems

(* A broken premise or consistency check: the run is wrong, but no
   operation was lost. *)
let problem o msg = if List.length o.problems < 20 then o.problems <- msg :: o.problems

let correct o = o.failed = 0 && o.problems = []

(* ---- output ---- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit the float has: JSON has no NaN or infinity, so those
   become 0 (and are reported as problems by [check_finite]). *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let check_finite o sheet =
  List.iter
    (fun (name, _, v) -> if not (Float.is_finite v) then problem o (name ^ " is not finite"))
    (rows sheet)

let result_line o sheet =
  let metrics =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_number v)
          (json_string unit))
      (rows sheet)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct o) o.attempted o.failed (String.concat ", " metrics)

(* Live major-heap data after a full collection, in MiB. *)
let live_heap_mb () =
  Gc.full_major ();
  let st = Gc.stat () in
  float_of_int (st.Gc.live_words * (Sys.word_size / 8)) /. (1024. *. 1024.)

(* The heap the benchmark itself keeps reachable from [x], in MiB — to
   take the harness's own records out of a live-heap reading. *)
let size_mb x = float_of_int (Obj.reachable_words (Obj.repr x) * (Sys.word_size / 8)) /. (1024. *. 1024.)
