(* E22 — daemon throughput: the fork-N select-loop cluster.

   Unlike the in-process micro-benchmarks in main.ml, these instances
   time the real `edb_cli serve` engine: N forked daemons over
   Unix-domain sockets, non-blocking writes, WAL group commit. Two rates
   per anti-entropy fan-out (max_sessions = 1 / 4 / 8):

     sessions   — completed initiator sessions (real + no-op) per
                  second cluster-wide, from source-side counter deltas
                  over a fixed idle window;
     visibility — update-visibility events per second: K updates
                  spread round-robin, each visible on the n-1 other
                  nodes once `await_converged` returns.

   fan-out=1 restores the old one-session-at-a-time loop, so the pair
   is the before/after for the concurrent event loop. Wall-clock rates
   from a 9-process cluster on a shared box, so no OLS fit: ns_per_op =
   1e9 / rate, r² and minor words are n/a.

   This is its own executable because [Harness] forks the daemons and
   OCaml 5 refuses [Unix.fork] in a process that has ever spawned a
   domain — which main.exe's domain-parallel instances do on any
   multi-core host. main.exe starts this one with fork+exec and reads
   one "name<TAB>ns_per_op" line per instance from its stdout:

     dune exec bench/daemon_bench.exe -- [--quick] *)

module Operation = Edb_store.Operation

module Harness = Edb_transport.Harness

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* Sessions are charged on the source side (`Node.handle_sharded`), so
   the cluster-wide completed-session count is the sum over all nodes
   of both session counters. *)
let daemon_session_total h ~n =
  let total = ref 0 in
  for node = 0 to n - 1 do
    match Harness.counters_of h ~node with
    | Error msg -> failwith ("daemon bench counters: " ^ msg)
    | Ok fields ->
        List.iter
          (fun (field, v) ->
            match field with
            | "propagation_sessions" | "noop_sessions" -> total := !total + v
            | _ -> ())
          fields
  done;
  !total

let run_daemon_fanout ~quick ~fanout =
  let n = 9 in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "edb-bench-daemon-%d-f%d" (Unix.getpid ()) fanout)
  in
  rm_rf dir;
  (* 20 ms ticks: the single-session baseline is then bounded by its
     one-dial-per-tick serialization (the regime the tentpole attacks),
     not by this container's single core — cranking the tick rate until
     fan-out=1 saturates the CPU would flatten the very ratio the
     instances exist to show. *)
  let h =
    Harness.start ~ae_period:0.02 ~seed:(41 + fanout) ~max_sessions:fanout
      ~dir ~n ()
  in
  Fun.protect
    ~finally:(fun () ->
      Harness.shutdown h;
      rm_rf dir)
    (fun () ->
      (* Warm up to an identical steady state: one update per node,
         fully converged, every daemon past its boot transient. *)
      for node = 0 to n - 1 do
        match
          Harness.update h ~node
            ~item:(Printf.sprintf "seed.%d" node)
            (Operation.Set "s")
        with
        | Ok () -> ()
        | Error msg -> failwith ("daemon bench warm-up update: " ^ msg)
      done;
      (match Harness.await_converged ~deadline:60.0 h with
      | Ok _ -> ()
      | Error msg -> failwith ("daemon bench warm-up: " ^ msg));
      let window = if quick then 0.8 else 2.5 in
      let c0 = daemon_session_total h ~n in
      let t0 = Unix.gettimeofday () in
      Unix.sleepf window;
      let elapsed = Unix.gettimeofday () -. t0 in
      let c1 = daemon_session_total h ~n in
      let sessions = max 1 (c1 - c0) in
      let ns_session = elapsed *. 1e9 /. float_of_int sessions in
      let k = if quick then 18 else 64 in
      let t1 = Unix.gettimeofday () in
      for i = 0 to k - 1 do
        match
          Harness.update h ~node:(i mod n)
            ~item:(Printf.sprintf "vis.%d" i)
            (Operation.Set (string_of_int i))
        with
        | Ok () -> ()
        | Error msg -> failwith ("daemon bench visibility update: " ^ msg)
      done;
      (match Harness.await_converged ~deadline:60.0 h with
      | Ok _ -> ()
      | Error msg -> failwith ("daemon bench visibility: " ^ msg));
      let vis_elapsed = Unix.gettimeofday () -. t1 in
      let ns_visibility = vis_elapsed *. 1e9 /. float_of_int (k * (n - 1)) in
      (ns_session, ns_visibility))

let () =
  let quick = Array.mem "--quick" Sys.argv in
  List.iter
    (fun fanout ->
      let ns_session, ns_visibility = run_daemon_fanout ~quick ~fanout in
      Printf.printf "edb e22 daemon sessions fan-out=%d\t%.17g\n" fanout
        ns_session;
      Printf.printf "edb e22 daemon visibility fan-out=%d\t%.17g\n%!" fanout
        ns_visibility)
    [ 1; 4; 8 ]
