(* Tests of the benchmark itself: its generators are deterministic in the
   seed, and its oracle is live (a planted-inconsistent session is really
   refused, and a wrong expected answer is reported). *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let tmp_root =
  let d = Filename.concat (Sys.getcwd ()) "perfbench_test_tmp" in
  ignore (Sys.command ("rm -rf " ^ Filename.quote d));
  Unix.mkdir d 0o755;
  d

let dir_n = ref 0

let fresh_dir () =
  incr dir_n;
  Filename.concat tmp_root (string_of_int !dir_n)

(* Every request line the workloads' generators produce for [seed]. *)
let requests seed =
  let b = Buffer.create 4096 in
  List.iter
    (fun name ->
      let s = Gen.stream ~seed ~name in
      for _ = 1 to 40 do
        let ss = Gen.next s in
        List.iter (fun l -> Buffer.add_string b (l ^ "\n")) ss.Gen.lines;
        Buffer.add_string b (Gen.attr_query ss.Gen.ty ^ "\n");
        Gen.settle s ~committed:(ss.Gen.kind <> Gen.Planted)
      done)
    [ "w"; "p" ];
  let draw = Gen.browse_sequence ~seed ~skew:Gen.zipf_skew in
  for _ = 1 to 400 do
    Buffer.add_string b (Gen.universe.(draw ()) ^ "\n")
  done;
  Buffer.contents b

let fixture_bytes seed =
  let dir = fresh_dir () in
  let _, seq = Gen.build_fixture ~seed ~records:6 ~dir in
  ( seq,
    Net.read_file (Server.Journal.journal_path ~dir),
    Net.read_file (Server.Journal.snapshot_path ~dir) )

let () =
  check "same seed, same request sequences" (requests 7 = requests 7);
  check "another seed, other request sequences" (requests 7 <> requests 8);
  let seq, journal, snapshot = fixture_bytes 7 in
  let seq', journal', snapshot' = fixture_bytes 7 in
  check "fixture holds the base schema plus 6 records" (seq = 7);
  check "same seed, byte-identical fixture journal and snapshot"
    (seq = seq' && journal = journal' && snapshot = snapshot');
  let _, journal'', _ = fixture_bytes 8 in
  check "another seed, another fixture journal" (journal <> journal'');
  check "universe has over twice the 256-entry response cache"
    (Array.length Gen.universe >= 512
    && Array.length (Array.of_list (List.sort_uniq compare (Array.to_list Gen.universe)))
       = Array.length Gen.universe);
  (* the planted-inconsistent session is refused by the consistency check *)
  let m, _ = Gen.build_fixture ~seed:7 ~records:0 ~dir:(fresh_dir ()) in
  Core.Manager.begin_session m;
  Core.Manager.run_commands m (Gen.planted_line 13);
  (match Core.Manager.end_session m with
  | Core.Manager.Consistent -> check "planted session refused" false
  | Core.Manager.Inconsistent reports ->
      check "planted session refused by ri$CodeReqAttr_Attr"
        (List.exists
           (fun r -> Workload.contains r.Core.Manager.description "ri$CodeReqAttr_Attr")
           reports);
      Core.Manager.rollback m);
  (* the oracle accepts the right answer and reports a planted wrong one *)
  let o = Oracle.create m in
  let q = Gen.universe.(3) in
  let reply = Server.Protocol.ok (Oracle.render (Core.Manager.query_text m q)) in
  Oracle.check_query o q reply;
  check "oracle accepts the reference's own answer" (o.Oracle.failures = 0);
  o.Oracle.corrupt <- true;
  Oracle.check_query o q reply;
  check "oracle reports a wrong expected answer" (o.Oracle.failures = 1);
  ignore (Sys.command ("rm -rf " ^ Filename.quote tmp_root));
  if !failures > 0 then exit 1
