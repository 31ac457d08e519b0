(* Per-layer readings taken from the engine's public profiles: the
   operator trees of [Engine.result.profile], the storage counters of
   [Metrics], and the consistency checks the traced run makes on them. *)

module Engine = Xqdb_core.Engine
module Metrics = Xqdb_storage.Metrics

(* Operator kinds as reported in [phys_op.<kind>.*]; semi- variants fold
   into their join, a product into its join, and anything unlisted into
   [other]. *)
let kinds =
  [ "scan"; "idx_scan"; "sidx_scan"; "par_scan"; "nl_join"; "bnl_join"; "inl_join";
    "struct_join"; "twig_match"; "filter"; "project"; "sort"; "ext_sort"; "btree_sort";
    "materialize"; "other" ]

let join_kinds = ["nl_join"; "bnl_join"; "inl_join"; "struct_join"]

let kind_of op =
  let op =
    if String.length op > 5 && String.equal (String.sub op 0 5) "semi-" then
      String.sub op 5 (String.length op - 5)
    else op
  in
  let head = match String.index_opt op ' ' with Some i -> String.sub op 0 i | None -> op in
  match head with
  | "scan" -> "scan"
  | "idx-scan" -> "idx_scan"
  | "sidx-scan" -> "sidx_scan"
  | "par-scan" -> "par_scan"
  | "nl-join" | "product" -> "nl_join"
  | "bnl-join" | "bnl-product" -> "bnl_join"
  | "inl-join" -> "inl_join"
  | "struct-join" -> "struct_join"
  | "twig-match" -> "twig_match"
  | "filter" -> "filter"
  | "project" -> "project"
  | "sort" -> "sort"
  | "ext-sort" -> "ext_sort"
  | "btree-sort" -> "btree_sort"
  | "materialize" -> "materialize"
  | _ -> "other"

type op_acc = {
  mutable self_s : float;
  mutable self_ios : float;
  mutable rows : float;
  mutable batches : float;
}

type ops = (string, op_acc) Hashtbl.t

let ops () : ops =
  let t = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace t k { self_s = 0.; self_ios = 0.; rows = 0.; batches = 0. }) kinds;
  t

(* Fold one run's operator trees into [acc], each reading scaled by
   [weight] (1 for a sum, 1/k for a mean over k repetitions). *)
let add_profile ?(weight = 1.) (acc : ops) (p : Engine.profile) =
  let rec walk (o : Engine.op_profile) =
    let a = Hashtbl.find acc (kind_of o.Engine.op) in
    a.self_s <- a.self_s +. (weight *. o.Engine.own_seconds);
    a.self_ios <- a.self_ios +. (weight *. float_of_int o.Engine.own_ios);
    a.rows <- a.rows +. (weight *. float_of_int o.Engine.rows);
    a.batches <- a.batches +. (weight *. float_of_int o.Engine.batches);
    List.iter walk o.Engine.inputs
  in
  List.iter walk p.Engine.operators

let put_ops sheet (acc : ops) =
  List.iter
    (fun k ->
      let a = Hashtbl.find acc k in
      Util.put sheet (Printf.sprintf "phys_op.%s.self_s" k) "s" a.self_s;
      Util.put sheet (Printf.sprintf "phys_op.%s.self_ios" k) "count" a.self_ios;
      Util.put sheet (Printf.sprintf "phys_op.%s.rows" k) "count" a.rows)
    kinds;
  let rows, batches =
    List.fold_left
      (fun (r, b) k ->
        let a = Hashtbl.find acc k in
        (r +. a.rows, b +. a.batches))
      (0., 0.) join_kinds
  in
  Util.put sheet "phys_op.join.rows_per_batch" "count" (Util.ratio rows batches)

(* Execute seconds not spent inside any operator tree: compile or cache
   lookup, guard evaluation, reconstruction and serialization. *)
let outside_ops_s (r : Engine.result) =
  r.Engine.elapsed
  -. List.fold_left (fun acc (o : Engine.op_profile) -> acc +. o.Engine.seconds) 0.
       r.Engine.profile.Engine.operators

(* The traced run's consistency check on one single-session result:
   every operator's exclusive page I/O plus the I/O outside operators
   adds up to the run's page I/O exactly, and the operators' exclusive
   seconds add up to their roots' inclusive seconds, which fit inside
   the run's elapsed time. *)
let check_consistency o ~what (r : Engine.result) =
  let p = r.Engine.profile in
  let rec sums (o : Engine.op_profile) =
    List.fold_left
      (fun (ios, s) c ->
        let ios', s' = sums c in
        (ios + ios', s +. s'))
      (o.Engine.own_ios, o.Engine.own_seconds) o.Engine.inputs
  in
  let own_ios, own_s =
    List.fold_left
      (fun (ios, s) root ->
        let ios', s' = sums root in
        (ios + ios', s +. s'))
      (0, 0.) p.Engine.operators
  in
  if own_ios + p.Engine.other_ios <> r.Engine.page_ios then
    Util.problem o
      (Printf.sprintf "%s: operator own_ios %d + other_ios %d <> page_ios %d" what own_ios
         p.Engine.other_ios r.Engine.page_ios);
  let outside = outside_ops_s r in
  let roots_s = r.Engine.elapsed -. outside in
  if Float.abs (own_s -. roots_s) > 1e-6 *. (1. +. roots_s) then
    Util.problem o
      (Printf.sprintf "%s: operator self seconds %.6f <> root inclusive seconds %.6f" what own_s
         roots_s);
  if outside < -1e-3 then
    Util.problem o
      (Printf.sprintf "%s: operators took %.6fs, more than the run's %.6fs" what roots_s
         r.Engine.elapsed)

(* Serialization cost of one result forest (from [Engine.eval]): the
   median of [reps] prints. *)
let serialize_s ?(reps = 5) forest =
  Util.median
    (List.init reps (fun _ ->
         snd (Util.timed (fun () -> ignore (Xqdb_xml.Xml_print.forest_to_string forest)))))

let counter snap name = float_of_int (Metrics.get snap name)

let latch_acquisitions snap =
  counter snap "latch.shared_acquisitions" +. counter snap "latch.exclusive_acquisitions"

(* Median microseconds to parse each query text, over [reps] parses. *)
let parse_us ?(reps = 20) texts =
  Util.median
    (List.concat_map
       (fun text ->
         List.init reps (fun _ ->
             1e6 *. snd (Util.timed (fun () -> ignore (Xqdb_xq.Xq_parser.parse text)))))
       texts)

(* Cold compiles: each query on a fresh session view (an empty prepared
   cache), returning the median milliseconds and the templates built per
   compile. *)
let cold_compiles engines_and_queries =
  let before = Metrics.snapshot () in
  let ms =
    List.map
      (fun (engine, query) ->
        let session = Engine.session engine in
        1e3 *. snd (Util.timed (fun () -> ignore (Engine.compile session query))))
      engines_and_queries
  in
  let d = Metrics.diff (Metrics.snapshot ()) before in
  (Util.median ms, Util.ratio (counter d "planner.templates_built") (float_of_int (List.length ms)))

(* The server and wire readings, which only the served workloads take. *)
let server_metrics =
  [ ("wire.encode_us", "us"); ("wire.decode_us", "us"); ("wire.response_bytes", "bytes");
    ("server.overhead_ms_p50", "ms"); ("server.overhead_ms_p99", "ms");
    ("server.queue_depth_hw", "count"); ("server.sheds", "count"); ("serve.scaling_2v1", "ratio") ]
