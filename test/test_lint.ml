(* The linter linted: seeded violations of every rule must be reported
   at the right file:line in both renderings, clean code must stay
   clean, and the allowlist must be checked in both directions. *)

module L = Xqdb_lint

let src ?(path = "lib/storage/seeded.ml") ?(mli = true) text =
  { L.Rules.path; text; mli_exists = mli }

let has ~rule ?line ?col findings =
  List.exists
    (fun (f : L.Finding.t) ->
      f.rule = rule
      && (match line with None -> true | Some l -> f.line = l)
      && match col with None -> true | Some c -> f.col = c)
    findings

let count ~rule findings =
  List.length (List.filter (fun (f : L.Finding.t) -> f.rule = rule) findings)

(* --- L1 ------------------------------------------------------------------ *)

let seeded_l1 =
  String.concat "\n"
    [ "let boom () = failwith \"no\"";
      "let boom2 () = raise (Failure \"no\")";
      "let fancy msg = Format.kasprintf failwith msg" ]

let test_l1 () =
  let fs = L.Rules.check_file (src seeded_l1) in
  Alcotest.(check bool) "failwith line 1" true (has ~rule:"L1" ~line:1 fs);
  Alcotest.(check bool) "Failure line 2" true (has ~rule:"L1" ~line:2 fs);
  Alcotest.(check bool) "eta-passed failwith line 3" true (has ~rule:"L1" ~line:3 fs);
  Alcotest.(check int) "exactly three" 3 (count ~rule:"L1" fs);
  let clean = "let boom () = raise (Invalid_argument \"x\")" in
  Alcotest.(check int) "typed raise clean" 0 (count ~rule:"L1" (L.Rules.check_file (src clean)))

(* --- L2 ------------------------------------------------------------------ *)

let seeded_l2 =
  String.concat "\n"
    [ "let swallow f = try f () with _ -> 0";
      "let swallow2 f = try f () with e -> ignore e";
      "let ok f = try f () with e -> raise e";
      "let ok2 f = try f () with Not_found -> 0";
      "let swallow3 f = match f () with x -> x | exception _ -> 0";
      "let ok3 f = try f () with e -> Printexc.raise_with_backtrace e \
       (Printexc.get_raw_backtrace ())" ]

let test_l2 () =
  let fs = L.Rules.check_file (src seeded_l2) in
  Alcotest.(check bool) "wildcard line 1" true (has ~rule:"L2" ~line:1 fs);
  Alcotest.(check bool) "bound-not-reraised line 2" true (has ~rule:"L2" ~line:2 fs);
  Alcotest.(check bool) "match-exception wildcard line 5" true (has ~rule:"L2" ~line:5 fs);
  Alcotest.(check int) "reraise and specific patterns are clean" 3 (count ~rule:"L2" fs)

(* --- L3 ------------------------------------------------------------------ *)

let seeded_l3 =
  String.concat "\n"
    [ "let cmp a b = compare a b";
      "let eq f g = f () = g ()";
      "let h x = Hashtbl.hash x";
      "let fine frame = frame.pins = 0";
      "let fine2 op = op.next () = None";
      "let fine3 a b = String.compare a b";
      "let m a b = min (a ()) (b ())";
      "let mfine a = max 1 (min a 4096)";
      "let seen x xs = List.mem (x ()) xs";
      "let sfine x xs = List.mem x xs";
      "let sfine2 x xs = List.memq (x ()) xs" ]

let test_l3 () =
  let fs = L.Rules.check_file (src seeded_l3) in
  Alcotest.(check bool) "bare compare line 1" true (has ~rule:"L3" ~line:1 fs);
  Alcotest.(check bool) "computed = computed line 2" true (has ~rule:"L3" ~line:2 fs);
  Alcotest.(check bool) "Hashtbl.hash line 3" true (has ~rule:"L3" ~line:3 fs);
  Alcotest.(check bool) "min over computed line 7" true (has ~rule:"L3" ~line:7 fs);
  Alcotest.(check bool) "List.mem of computed line 9" true (has ~rule:"L3" ~line:9 fs);
  Alcotest.(check int)
    "field=const, clamped max, atomic List.mem, List.memq, String.compare clean" 5
    (count ~rule:"L3" fs);
  (* scope: the same text outside storage/physical/xasr is not checked *)
  let fs' = L.Rules.check_file (src ~path:"lib/core/seeded.ml" seeded_l3) in
  Alcotest.(check int) "out of scope" 0 (count ~rule:"L3" fs');
  (* a locally bound [compare] (ext_sort's comparator field/label) is legal *)
  let local =
    "let sort ~compare xs = List.sort compare xs\nlet use t = t.compare 1 2"
  in
  Alcotest.(check int) "local compare binding suppresses" 0
    (count ~rule:"L3" (L.Rules.check_file (src local)))

(* --- L4 ------------------------------------------------------------------ *)

let test_l4 () =
  let fs = L.Rules.check_file (src ~mli:false "let x = 1") in
  Alcotest.(check bool) "missing mli flagged at line 1" true (has ~rule:"L4" ~line:1 fs);
  Alcotest.(check int) "with mli clean" 0
    (count ~rule:"L4" (L.Rules.check_file (src ~mli:true "let x = 1")));
  Alcotest.(check int) "bin executables exempt" 0
    (count ~rule:"L4" (L.Rules.check_file (src ~path:"bin/seeded.ml" ~mli:false "let x = 1")))

(* --- L5 ------------------------------------------------------------------ *)

let test_l5 () =
  Alcotest.(check bool) "grammar accepts" true (L.Rules.valid_counter_name "pool.hits");
  Alcotest.(check bool) "grammar wants a dot" false (L.Rules.valid_counter_name "pool");
  Alcotest.(check bool) "grammar rejects caps" false (L.Rules.valid_counter_name "Pool.hits");
  Alcotest.(check bool) "latch subsystem in grammar" true
    (List.mem "latch" L.Rules.counter_subsystems);
  Alcotest.(check bool) "server subsystem in grammar" true
    (List.mem "server" L.Rules.counter_subsystems);
  let a =
    src ~path:"lib/storage/seeded_a.ml"
      (String.concat "\n"
         [ "let c1 = Metrics.counter \"pool.seeded_hits\"";
           "let c2 = Metrics.counter \"BadName\"";
           "let c3 = Metrics.counter (\"dyn\" ^ \"amic\")";
           "let c5 = Metrics.counter \"warp.hits\"" ])
  in
  let b =
    src ~path:"lib/core/seeded_b.ml"
      "let c4 = Storage.Metrics.counter \"pool.seeded_hits\""
  in
  let fs = L.Rules.check_project [ a; b ] in
  Alcotest.(check bool) "bad name flagged" true (has ~rule:"L5" ~line:2 fs);
  Alcotest.(check bool) "non-literal flagged" true (has ~rule:"L5" ~line:3 fs);
  Alcotest.(check bool) "unknown subsystem flagged" true (has ~rule:"L5" ~line:4 fs);
  Alcotest.(check bool) "cross-file duplicate flagged in second file" true
    (List.exists
       (fun (f : L.Finding.t) ->
         f.rule = "L5" && f.file = "lib/core/seeded_b.ml" && f.line = 1)
       fs);
  Alcotest.(check int) "first registration clean" 4 (count ~rule:"L5" fs)

(* --- L6 ------------------------------------------------------------------ *)

let seeded_l6 =
  String.concat "\n"
    [ "let a () = print_endline \"hi\"";
      "let b () = Printf.printf \"x%d\" 3";
      "let c () = Printf.eprintf \"x%d\" 3";
      "let d () = output_string Stdlib.stdout \"y\"" ]

let test_l6 () =
  let fs = L.Rules.check_file (src ~path:"lib/server/seeded.ml" seeded_l6) in
  Alcotest.(check bool) "print_endline line 1" true (has ~rule:"L6" ~line:1 fs);
  Alcotest.(check bool) "Printf.printf line 2" true (has ~rule:"L6" ~line:2 fs);
  Alcotest.(check bool) "Stdlib.stdout line 4" true (has ~rule:"L6" ~line:4 fs);
  Alcotest.(check int) "eprintf stays clean" 3 (count ~rule:"L6" fs);
  (* scope: the same text outside lib/server is not checked *)
  let fs' = L.Rules.check_file (src seeded_l6) in
  Alcotest.(check int) "out of scope" 0 (count ~rule:"L6" fs')

(* --- L7 ------------------------------------------------------------------ *)

(* Spawning makes the file its own reachability root, so the shared
   state below it is judged.  Annotated and Atomic state stays clean. *)
let seeded_l7 =
  String.concat "\n"
    [ "let work () = Domain.spawn (fun () -> ())";
      "let shared = ref 0";
      "let cache = Hashtbl.create 8";
      "let counted = Atomic.make 0";
      "let guarded = ref 0 [@@guarded_by lock]";
      "let confined = Hashtbl.create 4 [@@domain_local]";
      "type t = { mutable holders : int; name : string }";
      "type g = { mutable holders2 : int } [@@guarded_by lock]";
      "type a = { hits : int Atomic.t; tbl : (int, int) Hashtbl.t }" ]

let test_l7 () =
  let fs = L.Rules.check_project [ src seeded_l7 ] in
  Alcotest.(check bool) "top-level ref line 2" true (has ~rule:"L7" ~line:2 ~col:4 fs);
  Alcotest.(check bool) "top-level Hashtbl line 3" true (has ~rule:"L7" ~line:3 ~col:4 fs);
  Alcotest.(check bool) "mutable field line 7" true (has ~rule:"L7" ~line:7 ~col:19 fs);
  Alcotest.(check bool) "Hashtbl field line 9" true (has ~rule:"L7" ~line:9 fs);
  Alcotest.(check int) "atomic and annotated state clean" 4 (count ~rule:"L7" fs);
  (* reachability: state in a module the spawning file references is
     judged; the same state in an unreferenced module is not *)
  let root =
    src ~path:"lib/storage/seeded_root.ml"
      "let work () = Domain.spawn Seeded_leaf.tick"
  in
  let leaf =
    src ~path:"lib/storage/seeded_leaf.ml" "let state = ref 0\nlet tick () = incr state"
  in
  let lone = src ~path:"lib/storage/seeded_lone.ml" "let state = ref 0" in
  let fs = L.Rules.check_project [ root; leaf; lone ] in
  Alcotest.(check bool) "referenced module judged" true
    (List.exists
       (fun (f : L.Finding.t) ->
         f.rule = "L7" && f.file = "lib/storage/seeded_leaf.ml" && f.line = 1)
       fs);
  Alcotest.(check bool) "unreachable module not judged" false
    (List.exists
       (fun (f : L.Finding.t) -> f.rule = "L7" && f.file = "lib/storage/seeded_lone.ml")
       fs);
  (* check_file alone never judges L7 — reachability is project-wide *)
  Alcotest.(check int) "per-file check has no L7" 0
    (count ~rule:"L7" (L.Rules.check_file (src seeded_l7)))

(* --- L8 ------------------------------------------------------------------ *)

let test_l8 () =
  let fs = L.Rules.check_file (src "let sneaky () = Domain.spawn (fun () -> ())") in
  Alcotest.(check bool) "unsanctioned spawn flagged" true (has ~rule:"L8" ~line:1 ~col:16 fs);
  (* the two sanctioned sites stay clean; the same binding name in
     another file does not *)
  let ok =
    L.Rules.check_file
      (src ~path:"lib/physical/phys_op.ml" "let par_scan_fill f = Domain.spawn f")
  in
  Alcotest.(check int) "sanctioned phys_op site clean" 0 (count ~rule:"L8" ok);
  let ok' =
    L.Rules.check_file (src ~path:"lib/server/server.ml" "let serve f = Domain.spawn f")
  in
  Alcotest.(check int) "sanctioned server site clean" 0 (count ~rule:"L8" ok');
  let bad =
    L.Rules.check_file (src "let par_scan_fill f = Domain.spawn f")
  in
  Alcotest.(check int) "binding name alone does not sanction" 1 (count ~rule:"L8" bad)

(* --- L9 ------------------------------------------------------------------ *)

let seeded_l9 =
  String.concat "\n"
    [ "let bad l = Latch.acquire_exclusive l; Unix.sleepf 0.1; Latch.release l";
      "let ok l = Latch.acquire_shared l; Latch.release l; Unix.sleepf 0.1";
      "let bad2 l d = Latch.acquire_shared l; let x = Disk.read_page d 0 in \
       Latch.release l; x";
      "let ok2 d = Disk.read_page d 0";
      "let bad3 l w = Latch.acquire_exclusive l; Wal.sync w; Latch.release l";
      "let bad4 l f = Latch.acquire_shared l; \
       let r = Retry.run ~retryable:(fun _ -> true) f in Latch.release l; r";
      "let ok3 f = Retry.run ~retryable:(fun _ -> true) f" ]

let test_l9 () =
  let fs = L.Rules.check_file (src seeded_l9) in
  Alcotest.(check bool) "sleep under latch line 1" true (has ~rule:"L9" ~line:1 ~col:39 fs);
  Alcotest.(check bool) "page read under latch line 3" true (has ~rule:"L9" ~line:3 fs);
  Alcotest.(check bool) "wal sync under latch line 5" true (has ~rule:"L9" ~line:5 fs);
  (* Retry.run sleeps between attempts, so holding a latch across it
     stalls every waiter for the whole backoff schedule. *)
  Alcotest.(check bool) "retry under latch line 6" true (has ~rule:"L9" ~line:6 fs);
  Alcotest.(check int) "I/O after release and without latch clean" 4 (count ~rule:"L9" fs)

(* --- unparseable sources -------------------------------------------------- *)

let test_parse_error () =
  let fs = L.Rules.check_file (src "let = = =") in
  Alcotest.(check bool) "syntax error reported" true (has ~rule:"PARSE" fs)

(* --- allowlist ------------------------------------------------------------ *)

let known = List.map (fun (r : L.Rules.rule) -> r.id) L.Rules.registry

let test_allowlist () =
  let findings = L.Rules.check_file (src seeded_l1) in
  (* suppression *)
  let al = L.Allowlist.parse ~known ~file:"lint.allow" "L1 lib/storage/seeded.ml\n" in
  let kept = L.Allowlist.apply al findings in
  Alcotest.(check int) "L1 suppressed" 0 (count ~rule:"L1" kept);
  Alcotest.(check int) "nothing else surfaced" 0 (List.length kept);
  (* checked: an entry that suppresses nothing is itself a finding *)
  let stale = L.Allowlist.parse ~known ~file:"lint.allow" "L3 lib/storage/other.ml\n" in
  let kept = L.Allowlist.apply stale findings in
  Alcotest.(check int) "violations kept" 3 (count ~rule:"L1" kept);
  Alcotest.(check bool) "stale entry flagged" true (has ~rule:"ALLOW" ~line:1 kept);
  (* checked: malformed lines and unknown rules are findings *)
  let bad =
    L.Allowlist.parse ~known ~file:"lint.allow" "# ok\nL1\nL99 lib/storage/seeded.ml\n"
  in
  let kept = L.Allowlist.apply bad [] in
  Alcotest.(check bool) "malformed line 2" true (has ~rule:"ALLOW" ~line:2 kept);
  Alcotest.(check bool) "unknown rule line 3" true (has ~rule:"ALLOW" ~line:3 kept)

(* --- rendering ------------------------------------------------------------ *)

let test_render () =
  let f =
    L.Finding.v ~rule:"L1" ~file:"lib/storage/seeded.ml" ~line:7 ~col:14
      "bare failwith"
  in
  Alcotest.(check string) "text anchor"
    "lib/storage/seeded.ml:7:14: [L1] bare failwith" (L.Finding.to_string f);
  let json = L.Driver.render_json [ f ] in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json file" true (contains {|"file":"lib/storage/seeded.ml"|});
  Alcotest.(check bool) "json line" true (contains {|"line":7|});
  Alcotest.(check bool) "json rule" true (contains {|"rule":"L1"|});
  Alcotest.(check bool) "json schema" true (contains {|"schema_version": 2|});
  let quoted = L.Finding.to_json (L.Finding.v ~rule:"L1" ~file:"a\"b.ml" "say \"hi\"\n") in
  let contains_in s needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json escapes quotes" true (contains_in quoted {|a\"b.ml|});
  Alcotest.(check bool) "json escapes newline" true (contains_in quoted {|\n|})

(* --- report validation (check-lint) ---------------------------------------- *)

let test_validate_json () =
  let f =
    L.Finding.v ~rule:"L7" ~file:"lib/storage/seeded.ml" ~line:3 ~col:4
      "top-level ref `shared`"
  in
  (* `testbed check-lint`'s path: the testbed's JSON reader, then the
     lint-report check. *)
  let ok text =
    match
      Result.bind (Xqdb_testbed.Report.parse text)
        (Xqdb_testbed.Report.validate_lint ~schema_version:L.Driver.schema_version)
    with
    | Ok () -> true
    | Error _ -> false
  in
  Alcotest.(check bool) "rendered report validates" true (ok (L.Driver.render_json [ f ]));
  Alcotest.(check bool) "empty report validates" true (ok (L.Driver.render_json []));
  Alcotest.(check bool) "garbage rejected" false (ok "not json");
  Alcotest.(check bool) "truncated rejected" false (ok {|{"schema_version": 2,|});
  Alcotest.(check bool) "future schema rejected" false
    (ok {|{"schema_version": 99, "tool": "xqdb-lint", "count": 0, "findings": []}|});
  Alcotest.(check bool) "v1 rejected" false
    (ok {|{"schema_version": 1, "tool": "xqdb-lint", "count": 0, "findings": []}|});
  Alcotest.(check bool) "wrong tool rejected" false
    (ok {|{"schema_version": 2, "tool": "other", "count": 0, "findings": []}|});
  Alcotest.(check bool) "count mismatch rejected" false
    (ok {|{"schema_version": 2, "tool": "xqdb-lint", "count": 2, "findings": []}|});
  Alcotest.(check bool) "incomplete finding rejected" false
    (ok
       {|{"schema_version": 2, "tool": "xqdb-lint", "count": 1,
          "findings": [{"rule":"L7","file":"x.ml","line":3}]}|})

(* --- the repo itself is clean --------------------------------------------- *)

(* The acceptance criterion, as a test: running the real driver over the
   real tree under the real allowlist yields zero findings.  Tests run
   from test/ inside _build, so walk up to the repo root (the directory
   with dune-project and lib/). *)
let repo_root () =
  let rec up dir n =
    if n = 0 then None
    else if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir "lib")
      && Sys.file_exists (Filename.concat dir "lint.allow")
    then Some dir
    else up (Filename.dirname dir) (n - 1)
  in
  up (Sys.getcwd ()) 8

let test_repo_clean () =
  match repo_root () with
  | None -> ()  (* sandboxed runner: the CLI gate covers this in CI *)
  | Some root ->
    let findings = L.Driver.run ~root () in
    List.iter (fun f -> print_endline (L.Finding.to_string f)) findings;
    Alcotest.(check int) "repo lints clean" 0 (List.length findings)

let () =
  Alcotest.run "lint"
    [ ( "rules",
        [ Alcotest.test_case "L1 no bare failwith/Failure" `Quick test_l1;
          Alcotest.test_case "L2 no catch-all handlers" `Quick test_l2;
          Alcotest.test_case "L3 no polymorphic compare" `Quick test_l3;
          Alcotest.test_case "L4 interfaces everywhere" `Quick test_l4;
          Alcotest.test_case "L5 counter-name hygiene" `Quick test_l5;
          Alcotest.test_case "L6 no stdout in lib/server" `Quick test_l6;
          Alcotest.test_case "L7 no unprotected shared state" `Quick test_l7;
          Alcotest.test_case "L8 sanctioned spawn sites only" `Quick test_l8;
          Alcotest.test_case "L9 no blocking under a latch" `Quick test_l9;
          Alcotest.test_case "unparseable source" `Quick test_parse_error ] );
      ( "allowlist",
        [ Alcotest.test_case "suppression is checked both ways" `Quick test_allowlist ] );
      ( "output",
        [ Alcotest.test_case "text and json anchors" `Quick test_render;
          Alcotest.test_case "report validation" `Quick test_validate_json;
          Alcotest.test_case "repo is clean" `Quick test_repo_clean ] ) ]
