(* The xqdb benchmark entry point.

     main.exe --workload fig7|serve-dblp|serve-treebank --seed N
              --seconds S --trace 0|1 [--scale N]

   Builds the workload's inputs from the seed, runs it against the
   public API of the xqdb libraries, checks every output against an
   oracle, prints a human-readable summary and, as the last line of
   standard output, one JSON object:

     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

   With --trace 0 the metrics are the end-to-end ones; with --trace 1
   the per-layer ones.  The exit code is 0 only when every output
   matched its oracle and every premise and consistency check held.
   --scale shrinks the documents for the smoke test; the recorded
   benchmark always runs at the default scale. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let scale = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, " fig7, serve-dblp or serve-treebank");
      ("--seed", Arg.Set_int seed, " seed every input and schedule derives from");
      ("--seconds", Arg.Set_int seconds, " length of the timed phase of a served workload");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--scale", Arg.Set_int scale, " document scale (default: the workload's own)") ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) || !scale < 0 then begin
    prerr_endline "perfbench: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 and seed = !seed and seconds = float_of_int !seconds in
  let scale default = if !scale = 0 then default else !scale in
  let summary, o, sheet =
    match !workload with
    | "fig7" -> Fig7.run ~seed ~scale:(scale Fig7.scale) ~trace
    | "serve-dblp" -> Serve.run Serve.dblp ~seed ~scale:(scale Serve.dblp_scale) ~seconds ~trace
    | "serve-treebank" ->
      Serve.run Serve.treebank ~seed ~scale:(scale Serve.treebank_nodes) ~seconds ~trace
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2
  in
  Util.check_finite o sheet;
  List.iter print_endline summary;
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-36s %14.6g %s\n" name v unit)
    (Util.rows sheet);
  List.iter (fun p -> Printf.printf "  PROBLEM: %s\n" p) (List.rev o.Util.problems);
  print_endline (Util.result_line o sheet);
  exit (if Util.correct o then 0 else 1)
