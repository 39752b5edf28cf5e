(* The service loop.  File claiming is rename-based, so several daemons
   can share one spool; result writes are atomic; everything a job
   touches concurrently is mutex-guarded further down the stack. *)

module Probe = Automode_obs.Probe

type config = {
  spool : string;
  results : string;
  cache : Cache.t option;
  workers : int;
  domains : int;
  poll_s : float;
  once : bool;
  max_jobs : int option;
  socket : string option;
  reclaim_s : float option;
}

type summary = {
  accepted : int;
  completed : int;
  failed : int;
}

let running_dir c = Filename.concat c.spool "running"
let done_dir c = Filename.concat c.spool "done"
let failed_dir c = Filename.concat c.spool "failed"
let quarantine_dir c = Filename.concat c.spool "quarantine"
let stop_file c = Filename.concat c.spool "stop"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let move src dst_dir =
  try Sys.rename src (Filename.concat dst_dir (Filename.basename src))
  with Sys_error _ -> ()

(* Spool files waiting to be claimed, in name order — submitters control
   processing order through their file names. *)
let pending_files c =
  match Sys.readdir c.spool with
  | entries ->
    Array.to_list entries
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort String.compare
    |> List.map (Filename.concat c.spool)
  | exception Sys_error _ -> []

(* Claim by rename: losing a race to another daemon is not an error.
   The claim is stamped with the current time (rename preserves the
   submitter's mtime), so stale-claim recovery measures time since the
   claim, not since submission. *)
let claim c path =
  let dst = Filename.concat (running_dir c) (Filename.basename path) in
  match Sys.rename path dst with
  | () ->
    (try Unix.utimes dst 0. 0. with Unix.Unix_error _ -> ());
    Some dst
  | exception Sys_error _ -> None

(* A file sitting in running/ longer than [reclaim_s] belongs to a
   worker that died mid-job (a live worker would have moved it to
   done/ or failed/).  Rename it back into the spool so the next scan
   re-runs it — at-least-once semantics; losing the reclaim race to
   another daemon is fine.  [reclaim_s] must exceed the worst-case job
   latency or a slow job runs twice. *)
let reclaim_stale c =
  match c.reclaim_s with
  | None -> 0
  | Some timeout ->
    let now = Unix.gettimeofday () in
    (match Sys.readdir (running_dir c) with
     | exception Sys_error _ -> 0
     | entries ->
       Array.fold_left
         (fun n f ->
           if not (Filename.check_suffix f ".json") then n
           else
             let path = Filename.concat (running_dir c) f in
             match Unix.stat path with
             | { Unix.st_mtime; _ } when now -. st_mtime >= timeout ->
               (match Sys.rename path (Filename.concat c.spool f) with
                | () ->
                  Probe.count "serve.jobs.reclaimed";
                  n + 1
                | exception Sys_error _ -> n)
             | _ -> n
             | exception Unix.Unix_error _ -> n)
         0 entries)

let non_empty_lines text =
  String.split_on_char '\n' text
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if l = "" then None else Some l)

(* ------------------------------------------------------------------ *)
(* One job                                                            *)
(* ------------------------------------------------------------------ *)

let status_json (job : Job.t) ~status ~gate ~latency_ms ~cache_delta ~error =
  Json.to_string
    (Json.Obj
       (List.concat
          [ [ ("id", Json.String job.Job.id);
              ("status", Json.String status) ];
            (match gate with
             | None -> []
             | Some g -> [ ("gate", Json.Bool g) ]);
            (match cache_delta with
             | None -> []
             | Some (hits, misses) ->
               [ ( "cache",
                   Json.Obj
                     [ ("hits", Json.Int hits); ("misses", Json.Int misses) ]
                 ) ]);
            [ ("latency_ms", Json.Int latency_ms) ];
            (match error with
             | None -> []
             | Some e -> [ ("error", Json.String e) ]);
            [ ("job", Job.to_json job) ] ]))
  ^ "\n"

(* Run one job and write its report + status.  The cache hit/miss delta
   is exact when jobs run serially; with concurrent workers it may
   include a slice of a neighbour job's lookups — it is diagnostic
   output, the report itself is what CI byte-compares. *)
let run_job c job =
  let report_path = Filename.concat c.results (job.Job.id ^ ".report.txt") in
  let status_path = Filename.concat c.results (job.Job.id ^ ".json") in
  let t0 = Unix.gettimeofday () in
  let stats () =
    match c.cache with
    | None -> None
    | Some cache ->
      let h, m, _ = Cache.stats cache in
      Some (h, m)
  in
  let before = stats () in
  match
    Catalog.run ?cache:c.cache ~shrink:job.Job.shrink ~horizon:job.Job.horizon
      ~iterations:job.Job.iterations ~bound:job.Job.bound ~kind:job.Job.kind
      ~engine:job.Job.engine ~seeds:job.Job.seeds ()
  with
  | outcome ->
    let latency_ms =
      int_of_float ((Unix.gettimeofday () -. t0) *. 1000.)
    in
    Probe.sample "serve.job.latency" latency_ms;
    let cache_delta =
      match (before, stats ()) with
      | Some (h0, m0), Some (h1, m1) -> Some (h1 - h0, m1 - m0)
      | _ -> None
    in
    Cache.write_atomic ~path:report_path outcome.Catalog.report;
    Cache.write_atomic ~path:status_path
      (status_json job ~status:"done" ~gate:(Some outcome.Catalog.gate_ok)
         ~latency_ms ~cache_delta ~error:None);
    Probe.count "serve.jobs.completed";
    Ok outcome.Catalog.gate_ok
  | exception e ->
    let latency_ms =
      int_of_float ((Unix.gettimeofday () -. t0) *. 1000.)
    in
    let msg = Printexc.to_string e in
    Cache.write_atomic ~path:status_path
      (status_json job ~status:"failed" ~gate:None ~latency_ms
         ~cache_delta:None ~error:(Some msg));
    Probe.count "serve.jobs.failed";
    Error msg

(* ------------------------------------------------------------------ *)
(* Socket intake                                                      *)
(* ------------------------------------------------------------------ *)

let sock_seq = ref 0

let read_all fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n -> Buffer.add_subbytes buf chunk 0 n; go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* client still writing: wait for more (bounded by the client) *)
      ignore (Unix.select [ fd ] [] [] 5.0);
      go ()
  in
  go ()

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ()
  in
  go 0

let drain_socket listener ~spool =
  let spooled = ref 0 in
  let rec accept_loop () =
    match Unix.accept listener with
    | client, _ ->
      Unix.clear_nonblock client;
      let reply = Buffer.create 256 in
      (try
         let lines = non_empty_lines (read_all client) in
         List.iter
           (fun line ->
             match Job.parse_line line with
             | Error e -> Buffer.add_string reply ("error: " ^ e ^ "\n")
             | Ok job ->
               incr sock_seq;
               let name =
                 Printf.sprintf "sock-%d-%06d-%s.json" (Unix.getpid ())
                   !sock_seq job.Job.id
               in
               Cache.write_atomic
                 ~path:(Filename.concat spool name)
                 (Json.to_string (Job.to_json job) ^ "\n");
               incr spooled;
               Buffer.add_string reply ("queued " ^ job.Job.id ^ "\n"))
           lines;
         write_all client (Buffer.contents reply)
       with e -> Unix.close client; raise e);
      Unix.close client;
      accept_loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ()
  in
  accept_loop ();
  !spooled

let open_socket path =
  if Sys.file_exists path then Sys.remove path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  Unix.set_nonblock fd;
  fd

(* ------------------------------------------------------------------ *)
(* The loop                                                           *)
(* ------------------------------------------------------------------ *)

let process_batch c files summary_ref =
  let claimed = List.filter_map (claim c) files in
  (* parse every line of every claimed file first, counting intake *)
  let parsed =
    List.map
      (fun path ->
        let lines =
          match read_file path with
          | text -> non_empty_lines text
          | exception Sys_error _ -> []
        in
        let jobs =
          List.map
            (fun line ->
              match Job.parse_line line with
              | Ok job ->
                Probe.count "serve.jobs.accepted";
                let a, co, f = !summary_ref in
                summary_ref := (a + 1, co, f);
                Ok job
              | Error e ->
                Probe.count "serve.jobs.failed";
                let a, co, f = !summary_ref in
                summary_ref := (a, co, f + 1);
                prerr_endline
                  (Printf.sprintf "serve: %s: %s" (Filename.basename path) e);
                Error e)
            lines
        in
        (path, jobs))
      claimed
  in
  let jobs = List.concat_map (fun (_, js) -> List.filter_map Result.to_option js) parsed in
  let outcomes =
    let work job = (job.Job.id, try run_job c job with e -> Error (Printexc.to_string e)) in
    Automode_robust.Parallel.map ~domains:c.workers work jobs
  in
  List.iter
    (fun (_, outcome) ->
      let a, co, f = !summary_ref in
      match outcome with
      | Ok _ -> summary_ref := (a, co + 1, f)
      | Error _ -> summary_ref := (a, co, f + 1))
    outcomes;
  (* A poison file — lines present, none of them a parseable job — is
     quarantined: moved aside with a JSON error status in the results
     directory, so a malformed producer never wedges the worker loop
     and the operator can see exactly why each file was set aside.
     Files that mix valid and broken lines keep the failed/ verdict:
     their valid jobs did run. *)
  List.iter
    (fun (path, line_results) ->
      let job_failed id =
        match List.assoc_opt id outcomes with
        | Some (Error _) -> true
        | Some (Ok _) | None -> false
      in
      let poison =
        line_results <> [] && List.for_all Result.is_error line_results
      in
      if poison then begin
        let base = Filename.basename path in
        Cache.write_atomic
          ~path:(Filename.concat c.results (base ^ ".quarantine.json"))
          (Json.to_string
             (Json.Obj
                [ ("file", Json.String base);
                  ("status", Json.String "quarantined");
                  ( "errors",
                    Json.List
                      (List.filter_map
                         (function
                           | Error e -> Some (Json.String e)
                           | Ok _ -> None)
                         line_results) ) ])
           ^ "\n");
        Probe.count "serve.jobs.quarantined";
        move path (quarantine_dir c)
      end
      else begin
        let bad =
          List.exists
            (function
              | Error _ -> true
              | Ok job -> job_failed job.Job.id)
            line_results
        in
        move path (if bad then failed_dir c else done_dir c)
      end)
    parsed;
  List.length jobs

let run ?metrics c =
  if c.workers < 1 then invalid_arg "Daemon.run: workers < 1";
  (* the jobs of a batch split this budget: [Parallel.map] over
     [workers] hands each job [max 1 (domains / workers)] *)
  Automode_robust.Parallel.with_domains c.domains @@ fun () ->
  List.iter Cache.mkdir_p
    [ c.spool; running_dir c; done_dir c; failed_dir c; quarantine_dir c;
      c.results ];
  let listener = Option.map open_socket c.socket in
  let summary_ref = ref (0, 0, 0) in
  let loop () =
    let finished = ref false in
    while not !finished do
      ignore
        (Option.map (fun fd -> drain_socket fd ~spool:c.spool) listener);
      ignore (reclaim_stale c);
      let files = pending_files c in
      Probe.gauge "serve.queue.depth" (List.length files);
      let ran = process_batch c files summary_ref in
      let _, completed, failed = !summary_ref in
      let budget_spent =
        match c.max_jobs with
        | Some n -> completed + failed >= n
        | None -> false
      in
      let stop_requested =
        Sys.file_exists (stop_file c)
        && (try Sys.remove (stop_file c); true with Sys_error _ -> true)
      in
      if budget_spent || stop_requested || (c.once && ran = 0) then
        finished := true
      else if ran = 0 then Unix.sleepf c.poll_s
    done
  in
  (match metrics with
   | None -> loop ()
   | Some m -> Probe.with_sink (Probe.standard m) loop);
  Option.iter
    (fun fd ->
      Unix.close fd;
      Option.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        c.socket)
    listener;
  let accepted, completed, failed = !summary_ref in
  { accepted; completed; failed }
