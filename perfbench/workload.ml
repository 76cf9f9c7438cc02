(* The two workloads against a real daemon over TCP: [evolve] and
   [browse]. The traffic connection runs a closed loop over a seeded
   request sequence; every reply is checked, and the oracle checks the
   answers and final states against a reference manager. *)

(* Journal records of the fixture every primary and replica boots from. *)
let fixture_records = 8

let setups = 3

(* browse: the warm-up asks the most popular queries once each; the
   response cache holds 256 and is wiped when full, so more would not
   leave it warmer *)
let warm_queries = 128

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  gomsm : string;
  dir : string;  (* scratch directory for data dirs, port files, logs *)
  corrupt_oracle : bool;
}

(* ------------------------------------------------------------------ *)
(* Samples and tallies                                                 *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable bes_ms : float list;
  mutable commit_ms : float list;
  mutable query_ms : float list;
  mutable committed : string list list;  (* lines of acknowledged sessions *)
  mutable queries : int;
  mutable iters : (float * int * int) list;
      (* per loop iteration, newest first: seconds, commits, queries *)
}

let tally () =
  { attempted = 0; failed = 0; bes_ms = []; commit_ms = []; query_ms = [];
    committed = []; queries = 0; iters = [] }

let unexpected t fmt =
  Printf.ksprintf
    (fun s ->
      t.failed <- t.failed + 1;
      prerr_endline ("unexpected: " ^ s))
    fmt

let send t c line =
  t.attempted <- t.attempted + 1;
  Net.request c line

let expect_ok t line (r, ms) =
  if not (Net.is_ok r) then unexpected t "%s -> %s" line (Net.status_text r);
  ms

let percentile xs p =
  match List.sort compare xs with
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      let x = p *. float_of_int (n - 1) in
      let i = int_of_float x in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 0.5

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* One evolution session plus its follow-up query                      *)
(* ------------------------------------------------------------------ *)

let session t c (s : Gen.stream) =
  let t0 = Obs.Mtime.now_ns () in
  let ss = Gen.next s in
  t.bes_ms <- expect_ok t "bes" (send t c "bes") :: t.bes_ms;
  List.iter
    (fun l -> ignore (expect_ok t l (send t c ("script-line " ^ l))))
    ss.Gen.lines;
  let r, ms = send t c "ees" in
  let committed =
    match ss.Gen.kind with
    | Gen.Planted ->
        let refused =
          (not (Net.is_ok r))
          && List.exists (fun l -> contains l "ri$CodeReqAttr_Attr") r.Server.Protocol.body
        in
        if not refused then
          unexpected t "planted session %s was not refused by ri$CodeReqAttr_Attr: %s"
            (List.hd ss.Gen.lines) (Net.status_text r);
        ignore (expect_ok t "rollback" (send t c "rollback"));
        false
    | Gen.Add | Gen.Delete ->
        if Net.is_ok r then begin
          t.commit_ms <- ms :: t.commit_ms;
          t.committed <- ss.Gen.lines :: t.committed;
          true
        end
        else begin
          unexpected t "ees of %s -> %s" (String.concat " " ss.Gen.lines) (Net.status_text r);
          ignore (send t c "rollback");
          false
        end
  in
  Gen.settle s ~committed;
  (* the follow-up query sees this stream's own changes to the type *)
  let q = Gen.attr_query ss.Gen.ty in
  let r, ms = send t c ("query " ^ q) in
  t.query_ms <- ms :: t.query_ms;
  t.queries <- t.queries + 1;
  let body = String.concat "\n" r.Server.Protocol.body in
  let on_ty = List.filter_map (fun (n, k) -> if k = ss.Gen.ty then Some n else None) in
  let listed n = contains body ("A = " ^ n ^ ",") in
  let bad_present = committed && List.exists listed (on_ty ss.Gen.removed)
  and bad_missing =
    committed && List.exists (fun n -> not (listed n)) (on_ty ss.Gen.placed)
  in
  if (not (Net.is_ok r)) || bad_present || bad_missing then
    unexpected t "query %S after %s: %s" q (String.concat " " ss.Gen.lines) (Net.status_text r);
  t.iters <- (Obs.Mtime.ns_to_ms (Obs.Mtime.elapsed_ns t0) /. 1e3, Bool.to_int committed, 1) :: t.iters

(* Run [body] into a fresh tally; a lost connection (timeout, reset)
   counts one failure and ends the loop. *)
let tallied body =
  let t = tally () in
  (try body t with e -> unexpected t "connection: %s" (Printexc.to_string e));
  t

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Daemons over a fixture                                              *)
(* ------------------------------------------------------------------ *)

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let oc = open_out_bin (Filename.concat dst f) in
      output_string oc (Net.read_file (Filename.concat src f));
      close_out oc)
    (Sys.readdir src)

let counter = ref 0

let fresh o name =
  incr counter;
  Filename.concat o.dir (Printf.sprintf "%s-%d" name !counter)

type fixture = {
  fdir : string;
  seq : int;
  digest : string;  (* of the fixture's state *)
  reference : Core.Manager.t;
}

let make_fixture o =
  let fdir = fresh o "fixture" in
  let reference, seq =
    Gen.build_fixture ~seed:o.seed ~records:fixture_records ~dir:fdir
  in
  { fdir; seq; digest = Server.Broker.digest_of_manager reference; reference }

(* Boot a primary on a fresh copy of the fixture; returns it, a connection
   and the seconds from spawn to a health reply at the fixture's seq. *)
let boot_primary o oracle fx =
  let data = fresh o "primary" in
  copy_dir fx.fdir data;
  let t0 = now () in
  let p =
    Net.spawn ~exe:o.gomsm ~args:[ "serve"; "--data"; data ]
      ~port_file:(data ^ ".port") ~log:(data ^ ".log")
  in
  let port = Net.await_port p in
  let c = Net.connect port in
  let h = Net.health c in
  let recover_s = now () -. t0 in
  Oracle.check_health oracle ~who:"recovered primary" ~seq:fx.seq ~digest:fx.digest h;
  (p, port, c, recover_s)

(* Start a replica against [port] and poll its health every [poll] seconds
   until it reports [seq]; returns it and the seconds taken. *)
let boot_replica o ~port ~seq ~poll =
  let data = fresh o "replica" in
  let t0 = now () in
  let r =
    Net.spawn ~exe:o.gomsm
      ~args:[ "replica"; "--primary"; Printf.sprintf "127.0.0.1:%d" port; "--data"; data ]
      ~port_file:(data ^ ".port") ~log:(data ^ ".log")
  in
  let c = Net.connect (Net.await_port r) in
  let deadline = t0 +. 120. in
  let rec wait () =
    let h = Net.health c in
    if Net.seq_of h = Some seq then h
    else if now () > deadline then failwith "replica did not catch up"
    else begin
      Unix.sleepf poll;
      wait ()
    end
  in
  let h = wait () in
  (r, c, h, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)
(* ------------------------------------------------------------------ *)

type phase = { t : tally; stats : (string * int) list }

let diff after before =
  List.map
    (fun (k, v) -> (k, v - Option.value (List.assoc_opt k before) ~default:0))
    after

(* Replay acknowledged sessions (each tally keeps them newest first) into
   the reference in journal order. *)
let replay_committed oracle tallies =
  List.iter (fun t -> List.iter (Oracle.replay oracle) (List.rev t.committed)) tallies

type run = {
  setup_s : float list;
  recover_s : float list;
  catchup_s : float list;
  rss_mb : float;
  commits : phase list;  (* phases whose commit samples are reported *)
  queries : phase list;  (* phases whose query samples are reported *)
  windows : phase list;  (* every measured phase, for the stats ratios *)
  extra_attempted : int;  (* warm-ups and set-ups, outside the phases *)
  extra_failed : int;
  oracle : Oracle.t;
}

(* A daemon set up the way every evolve/browse run starts. *)
type setup = {
  fx : fixture;
  oracle : Oracle.t;
  primary : Net.proc;
  port : int;
  admin : Net.conn;  (* health and stats scrapes *)
  conn : Net.conn;  (* the traffic connection *)
  warm : tally;
  recover_s : float;
  catchup_s : float;
  setup_s : float;
}

(* Build the fixture, boot a primary on it, attach a replica until it has
   caught up (then stop it), and warm up. *)
let setup_daemon o ~warm =
  let t0 = now () in
  let fx = make_fixture o in
  let oracle = Oracle.create fx.reference in
  let primary, port, admin, recover_s = boot_primary o oracle fx in
  let r, rc, rh, catchup_s = boot_replica o ~port ~seq:fx.seq ~poll:0.001 in
  Oracle.check_health oracle ~who:"caught-up replica" ~seq:fx.seq ~digest:fx.digest rh;
  Net.close rc;
  Net.stop r;
  let conn = Net.connect port in
  let w = warm conn in
  { fx; oracle; primary; port; admin; conn; warm = w; recover_s; catchup_s;
    setup_s = now () -. t0 }

let teardown s =
  Net.close s.conn;
  Net.close s.admin;
  Net.stop s.primary

(* A primary booted on a fresh copy of the fixture and a replica caught
   up against it, both stopped afterwards: one recover_s and one
   catchup_s sample. *)
let boot_pair o oracle fx =
  let p, port, admin, recover_s = boot_primary o oracle fx in
  let r, rc, rh, catchup_s = boot_replica o ~port ~seq:fx.seq ~poll:0.001 in
  Oracle.check_health oracle ~who:"caught-up replica" ~seq:fx.seq ~digest:fx.digest rh;
  Net.close rc;
  Net.stop r;
  Net.close admin;
  Net.stop p;
  (recover_s, catchup_s)

(* The timed seconds are cut into [rounds] slices. Each slice gives the
   traffic loop its first part; then, when the traffic makes no commits,
   the probe sessions [probe_share] of the slice; then primaries, each
   with a replica, boot on the fixture for the last [boot_share], at least
   one pair. Every figure then samples the whole run, so a slow stretch of
   the machine weighs on all of them alike, and a run lasts its seconds
   however fast the program is. *)
let rounds = 8
let probe_share = 0.25
let boot_share = 0.3

(* One slice of a loop, into the tally [t] that all its slices share; a
   lost connection counts one failure per slice. *)
let slice t body = try body () with e -> unexpected t "connection: %s" (Printexc.to_string e)

(* Set up [setups] times (tearing down all but the last), then run the
   timed rounds on the last: [step] is one iteration of the traffic loop,
   [probe] whether probe sessions run. [after] checks the end state. *)
let run_daemon o ~warm ~step ~probe ~after =
  let n = if o.trace then 1 else setups in
  let all =
    List.init n (fun i ->
        let s = setup_daemon o ~warm in
        if i < n - 1 then teardown s;
        s)
  in
  let s = List.nth all (n - 1) in
  if o.corrupt_oracle then s.oracle.Oracle.corrupt <- true;
  (* the probe runs on a second primary booted from the fixture, so the
     traffic daemon's base stays quiet *)
  let prober =
    if not probe then None
    else
      let p, port, admin, recover_s = boot_primary o s.oracle s.fx in
      Some (p, admin, Net.connect port, Gen.stream ~seed:o.seed ~name:"p", recover_s)
  in
  let main = tally () and pt = tally () in
  let before = Net.stats s.admin in
  let pbefore = Option.map (fun (_, admin, _, _, _) -> Net.stats admin) prober in
  let slice_s = o.seconds /. float_of_int rounds in
  let traffic_share = 1. -. boot_share -. if probe then probe_share else 0. in
  let boots =
    List.concat @@ List.init rounds (fun _ ->
        let t0 = now () in
        let until share = t0 +. (slice_s *. share) in
        let stop = until traffic_share in
        slice main (fun () ->
            while now () < stop do
              step main s.conn
            done);
        Option.iter
          (fun (_, _, c, stream, _) ->
            let stop = until (traffic_share +. probe_share) in
            slice pt (fun () ->
                while now () < stop do
                  session pt c stream
                done))
          prober;
        let stop = until 1. in
        let rec pairs acc =
          let acc = boot_pair o s.oracle s.fx :: acc in
          if now () < stop then pairs acc else List.rev acc
        in
        pairs [])
  in
  let main = { t = main; stats = diff (Net.stats s.admin) before } in
  let probed =
    Option.map
      (fun (p, admin, c, _, _) ->
        let ph = { t = pt; stats = diff (Net.stats admin) (Option.get pbefore) } in
        after o s main (Some (ph, admin));
        Net.close c;
        Net.close admin;
        Net.stop p;
        ph)
      prober
  in
  if Option.is_none prober then after o s main None;
  let rss = Net.peak_rss_mb s.primary in
  teardown s;
  let probe_boot = Option.to_list (Option.map (fun (_, _, _, _, r) -> r) prober) in
  {
    setup_s = List.map (fun s -> s.setup_s) all;
    recover_s = List.map (fun s -> s.recover_s) all @ List.map fst boots @ probe_boot;
    catchup_s = List.map (fun s -> s.catchup_s) all @ List.map snd boots;
    rss_mb = rss;
    commits = [ Option.value probed ~default:main ];
    queries = [ main ];
    windows = main :: Option.to_list probed;
    extra_attempted = List.fold_left (fun a s -> a + s.warm.attempted) 0 all;
    extra_failed =
      List.fold_left (fun a s -> a + s.warm.failed + s.oracle.Oracle.failures) 0 all
      - s.oracle.Oracle.failures;
    oracle = s.oracle;
  }

(* evolve: the connection loops bes -> 1-3 script-lines -> ees (rollback
   if refused) -> one query about the touched type. *)
let evolve o =
  let writer = ref (Gen.stream ~seed:o.seed ~name:"w") in
  let warm c =
    writer := Gen.stream ~seed:o.seed ~name:"w";
    tallied (fun t ->
        while not (Gen.full !writer) do
          session t c !writer
        done)
  in
  let step t c = session t c !writer in
  let after _o s (main : phase) _ =
    replay_committed s.oracle [ s.warm; main.t ];
    let commits = List.length s.warm.committed + List.length main.t.committed in
    Oracle.check_health s.oracle ~who:"primary after evolve" ~seq:(s.fx.seq + commits)
      (Net.health s.admin)
  in
  run_daemon o ~warm ~step ~probe:false ~after

(* browse: the connection draws queries by seeded Zipf from the 560-query
   universe on a quiet base; a probe of sessions on a second primary gives
   the commit figures. *)
let browse o =
  (* the first reply to each distinct query of the current set-up; every
     later reply, cache hit or not, must repeat it *)
  let first = ref (Hashtbl.create 1024) in
  let query t c q =
    let r, ms = send t c ("query " ^ Gen.universe.(q)) in
    t.query_ms <- ms :: t.query_ms;
    t.queries <- t.queries + 1;
    t.iters <- (ms /. 1e3, 0, 1) :: t.iters;
    match Hashtbl.find_opt !first q with
    | None -> Hashtbl.add !first q r
    | Some r0 ->
        let same =
          r.Server.Protocol.status = r0.Server.Protocol.status
          && (r.Server.Protocol.body = r0.Server.Protocol.body
             || List.sort compare r.Server.Protocol.body
                = List.sort compare r0.Server.Protocol.body)
        in
        if not (Net.is_ok r && same) then
          unexpected t "query %S -> %s with %d line(s), unlike its first reply"
            Gen.universe.(q) (Net.status_text r) (List.length r.Server.Protocol.body)
  in
  let draw = ref (fun () -> 0) in
  let warm c =
    first := Hashtbl.create 1024;
    draw := Gen.browse_sequence ~seed:o.seed ~skew:Gen.zipf_skew;
    let hot = Gen.by_rank ~seed:o.seed in
    tallied (fun t ->
        for r = 0 to warm_queries - 1 do
          query t c hot.(r)
        done)
  in
  let step t c = query t c (!draw ()) in
  let after _o s _ probe =
    (* every distinct query's first reply, on the quiet base *)
    Hashtbl.iter (fun q r -> Oracle.check_query s.oracle Gen.universe.(q) r) !first;
    Oracle.check_health s.oracle ~who:"browse primary after the timed phase" ~seq:s.fx.seq
      ~digest:s.fx.digest (Net.health s.admin);
    Option.iter
      (fun (pr, admin) ->
        replay_committed s.oracle [ pr.t ];
        Oracle.check_health s.oracle ~who:"probe primary"
          ~seq:(s.fx.seq + List.length pr.t.committed) (Net.health admin))
      probe
  in
  run_daemon o ~warm ~step ~probe:true ~after

let run o =
  match o.workload with
  | "evolve" -> evolve o
  | "browse" -> browse o
  | w -> invalid_arg ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                  *)
(* ------------------------------------------------------------------ *)

(* The mean of the middle half of [xs]. *)
let iqm xs =
  match List.sort compare xs with
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      let lo = n / 4 and hi = n - (n / 4) in
      Array.fold_left ( +. ) 0. (Array.sub a lo (hi - lo)) /. float_of_int (hi - lo)

(* A figure of samples in time order: they are cut into consecutive
   blocks of at least 50, and the figure is the mean of the middle half of
   [f] over the blocks. The host the benchmark was tuned on switches
   between speeds that differ by up to 1.5x, for seconds to minutes at a
   time. A percentile over the whole run, or the median of the blocks,
   then jumps between the speeds as the share of slow stretches crosses
   its rank; the mean of the middle half moves with that share smoothly,
   and a total over the whole run weighs its slowest stretches in full. *)
let over_blocks f xs =
  let a = Array.of_list xs in
  let nb = max 1 (Array.length a / 50) in
  let len = Array.length a / nb in
  if len = 0 then nan
  else iqm (List.init nb (fun b -> f (Array.to_list (Array.sub a (b * len) len))))

let block_pct p xs = over_blocks (fun blk -> percentile blk p) xs

(* Events per second of loop time, per block of loop iterations. *)
let rate count iters =
  over_blocks
    (fun blk ->
      let secs = List.fold_left (fun a (s, _, _) -> a +. s) 0. blk in
      float_of_int (List.fold_left (fun a it -> a + count it) 0 blk) /. secs)
    iters

(* samples are kept newest first *)
let in_order f phases = List.concat_map (fun ph -> List.rev (f ph.t)) phases

let end_to_end (r : run) =
  let commit_ms = in_order (fun t -> t.commit_ms) r.commits in
  let query_ms = in_order (fun t -> t.query_ms) r.queries in
  [
    ("setup_s", median r.setup_s, "s");
    ("recover_s", iqm r.recover_s, "s");
    ("catchup_s", iqm r.catchup_s, "s");
    ("commit_p90_ms", block_pct 0.9 commit_ms, "ms");
    ("commit_per_s", rate (fun (_, c, _) -> c) (in_order (fun t -> t.iters) r.commits), "1/s");
    ("query_p90_ms", block_pct 0.9 query_ms, "ms");
    ("query_per_s", rate (fun (_, _, q) -> q) (in_order (fun t -> t.iters) r.queries), "1/s");
    ("server_peak_rss_mb", r.rss_mb, "MiB");
  ]

(* The medians, printed but not in the result: a median sits between the
   host's fast and slow speeds and follows the share of slow stretches in
   a run, which spread them by up to 0.3 (IQR / median) over ten seeds. *)
let medians (r : run) =
  [
    ("commit_p50_ms", block_pct 0.5 (in_order (fun t -> t.commit_ms) r.commits), "ms");
    ("query_p50_ms", block_pct 0.5 (in_order (fun t -> t.query_ms) r.queries), "ms");
  ]

let attempted (r : run) =
  r.extra_attempted + List.fold_left (fun a ph -> a + ph.t.attempted) 0 r.windows

let failed (r : run) =
  r.extra_failed + r.oracle.Oracle.failures
  + List.fold_left (fun a ph -> a + ph.t.failed) 0 r.windows
