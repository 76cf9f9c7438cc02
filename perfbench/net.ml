(* The socket side of the benchmark: spawning and stopping gomsm daemons,
   and a blocking line-protocol connection that times each request. *)

module Protocol = Server.Protocol

(* ------------------------------------------------------------------ *)
(* Processes                                                           *)
(* ------------------------------------------------------------------ *)

type proc = { pid : int; port_file : string; log : string }

let live : int list ref = ref []

let spawn ~exe ~args ~port_file ~log =
  (try Sys.remove port_file with Sys_error _ -> ());
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let argv = Array.of_list (exe :: args @ [ "--port"; "0"; "--port-file"; port_file ]) in
  let pid = Unix.create_process exe argv Unix.stdin fd fd in
  Unix.close fd;
  live := pid :: !live;
  { pid; port_file; log }

let stop p =
  (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) p.pid) !live

(* Kill and reap every daemon still running: on exit, normal or not. *)
let stop_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* Poll (every [poll] seconds) until the daemon has written its port file:
   the default database is recovered before the listener opens. *)
let await_port ?(poll = 0.0005) ?(timeout = 120.) p =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let port =
      match read_file p.port_file with
      | s -> int_of_string_opt (String.trim s)
      | exception Sys_error _ -> None
    in
    match port with
    | Some port -> port
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] p.pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (( <> ) p.pid) !live;
            failwith ("daemon exited during start-up; see " ^ p.log));
        if Unix.gettimeofday () > deadline then
          failwith ("daemon did not start; see " ^ p.log);
        Unix.sleepf poll;
        go ()
  in
  go ()

(* Peak resident set size of a running daemon, in MiB. *)
let peak_rss_mb p =
  let status =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" p.pid) In_channel.input_all
  in
  let kb =
    String.split_on_char '\n' status
    |> List.find_map (fun l ->
           try Scanf.sscanf l "VmHWM: %d kB" (fun k -> Some k)
           with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "no VmHWM line"

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

type conn = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (* a daemon that stops answering fails the request instead of the run *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Send one request line and read its framed reply; returns the reply and
   the round trip in milliseconds (request sent -> full reply read). *)
let request c line =
  let t0 = Obs.Mtime.now_ns () in
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  let r = Protocol.read_response c.ic in
  (r, Obs.Mtime.ns_to_ms (Obs.Mtime.elapsed_ns t0))

let is_ok (r : Protocol.response) = r.Protocol.status = Protocol.Ok

let status_text (r : Protocol.response) =
  match r.Protocol.status with Protocol.Ok -> "ok" | Protocol.Err e -> "err " ^ e

(* [key value] body lines of a health reply. *)
let health c =
  let r, _ = request c "health" in
  List.filter_map
    (fun l ->
      match String.index_opt l ' ' with
      | Some i -> Some (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
      | None -> None)
    r.Protocol.body

let seq_of health = Option.bind (List.assoc_opt "seq" health) int_of_string_opt

(* The daemon's counters and gauges (histogram lines contribute their
   sample count as "<name>.count"). *)
let stats c =
  let r, _ = request c "stats" in
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | ("counter" | "gauge") :: name :: v :: _ ->
          Option.map (fun v -> (name, v)) (int_of_string_opt v)
      | "hist" :: name :: "count" :: v :: _ ->
          Option.map (fun v -> (name ^ ".count", v)) (int_of_string_opt v)
      | _ -> None)
    r.Protocol.body
