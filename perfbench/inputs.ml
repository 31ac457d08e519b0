(* The seeded documents.  The seed picks which publications and sentences
   a document holds; the properties the workloads' query costs depend on
   are held fixed, so that two seeds differ in content but not in the
   amount of work they ask for. *)

module Tree = Xqdb_xml.Xml_tree
module Dblp = Xqdb_workload.Dblp_gen
module Treebank = Xqdb_workload.Treebank_gen

let count_label label node =
  let rec walk acc = function
    | Tree.Text _ -> acc
    | Tree.Elem (l, kids) ->
      List.fold_left walk (if String.equal l label then acc + 1 else acc) kids
  in
  walk 0 node

(* A DBLP document of [scale] publications whose volume count is within
   1% (at least 1) of the generator's expected fraction: the efficiency
   tests 2, 3 and 5 and Example 6 scale with it.  Generator seeds are
   drawn from [seed] until one qualifies (the closest of 200 otherwise). *)
let dblp ~seed ~scale =
  let base = Dblp.scaled scale in
  let target =
    Float.round (float_of_int base.Dblp.articles *. base.Dblp.volume_fraction) |> int_of_float
  in
  let tolerance = max 1 (target / 100) in
  let rec draw i best =
    let params = { base with Dblp.seed = Util.derive seed (Printf.sprintf "dblp/%d" i) } in
    let doc = Dblp.generate params in
    let off = abs (count_label "volume" doc - target) in
    let best = match best with Some (_, b) when b <= off -> best | _ -> Some (doc, off) in
    if off <= tolerance || i >= 200 then fst (Option.get best) else draw (i + 1) best
  in
  Xqdb_xml.Xml_print.to_string (draw 0 None)

(* What the deep structural queries of serve-treebank cost on one
   sentence: nodes, S and NP elements, (S, NP) and (NP, NN)
   ancestor-descendant pairs, and (S, NP, NN) ancestor chains. *)
let sentence_work sentence =
  let w = Array.make 6 0 in
  let bump i k = w.(i) <- w.(i) + k in
  let rec walk s np snp = function
    | Tree.Text _ -> bump 0 1
    | Tree.Elem (label, kids) ->
      bump 0 1;
      let s, np, snp =
        match label with
        | "S" ->
          bump 1 1;
          (s + 1, np, snp)
        | "NP" ->
          bump 2 1;
          bump 3 s;
          (s, np + 1, snp + s)
        | "NN" ->
          bump 4 np;
          bump 5 snp;
          (s, np, snp)
        | _ -> (s, np, snp)
      in
      List.iter (walk s np snp) kids
  in
  walk 0 0 0 sentence;
  w

(* Candidate sentences have at most this many nodes.  The generator's
   sentence sizes are heavy-tailed: one uncapped sentence can hold a
   third of a document's (S, NP, NN) chains.  Capped, sentences still
   nest 10 levels deep on average and up to 24. *)
let max_sentence_nodes = 150

(* The averages per node of each [sentence_work] reading, over 20 000 of
   the generator's sentences within the cap. *)
let per_node = [| 1.0; 0.0442; 0.1446; 0.2492; 0.3137; 0.4895 |]

(* A Treebank document of about [scale] nodes with the average work per
   node on every [sentence_work] reading.  With a plain node budget the
   deep queries' cost still swings by a fifth between seeds.  Instead,
   from the seeded candidates within the size cap, each step adds the one
   that keeps every total closest to the node count's share of its target
   without passing any target by more than 1%, until the node count is
   within 1% of its target.  The chosen sentences keep their seeded
   order. *)
let treebank ~seed ~scale =
  let params = { (Treebank.scaled 1000) with Treebank.seed = Util.derive seed "treebank" } in
  let sentences, work =
    (match Treebank.generate params with Tree.Elem (_, s) -> s | Tree.Text _ -> [])
    |> List.map (fun s -> (s, sentence_work s))
    |> List.filter (fun (_, w) -> w.(0) <= max_sentence_nodes)
    |> Array.of_list |> Array.split
  in
  let target = Array.map (fun r -> r *. float_of_int scale) per_node in
  (* How far the totals are from the targets' proportions, measured
     against the node count's share of its own target. *)
  let skew total =
    let share i = float_of_int total.(i) /. target.(i) in
    let nodes = share 0 in
    let d = ref 0. in
    Array.iteri (fun i _ -> d := !d +. ((share i -. nodes) ** 2.)) total;
    !d
  in
  let fits total = Array.for_all2 (fun t x -> float_of_int t <= 1.01 *. x) total target in
  let chosen = Array.make (Array.length sentences) false in
  let rec grow total =
    if float_of_int total.(0) < 0.99 *. target.(0) then begin
      let best = ref None and best_skew = ref infinity in
      Array.iteri
        (fun k w ->
          if not chosen.(k) then begin
            let total' = Array.map2 ( + ) total w in
            let d = skew total' in
            if d < !best_skew && fits total' then begin
              best := Some k;
              best_skew := d
            end
          end)
        work;
      match !best with
      | None -> ()
      | Some k ->
        chosen.(k) <- true;
        grow (Array.map2 ( + ) total work.(k))
    end
  in
  grow (Array.make (Array.length per_node) 0);
  let kept = List.filteri (fun k _ -> chosen.(k)) (Array.to_list sentences) in
  Xqdb_xml.Xml_print.to_string (Tree.elem "treebank" kept)
