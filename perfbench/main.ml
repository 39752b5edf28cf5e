(* The campaign-job benchmark: one process, one closed-loop client,
   domains = 1, workers = 1.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
     bench.exe --workload NAME --seed N --setup-only   (prints "ready T")
     bench.exe --record FILE [--domains D]

   With --trace 0 it runs jobs for S seconds (and at least [min_jobs])
   and prints the end-to-end metrics; with --trace 1 it runs each job of
   a fixed prefix of the job list untraced and traced, and prints the
   per-layer split.  The last stdout line is the JSON
   result; a run with any failed or mismatched job exits 1. *)

module Metrics = Automode_obs.Metrics
module Probe = Automode_obs.Probe

type workload = {
  name : string;
  tag : int;
  min_jobs : int;     (* at least 10 samples beyond the p90 *)
  traced_jobs : int;  (* fixed, so the traced counters repeat exactly *)
}

let workloads =
  [ { name = "campaign-cold"; tag = 1; min_jobs = 100; traced_jobs = 120 };
    { name = "litmus-enum"; tag = 2; min_jobs = 100; traced_jobs = 24 };
    { name = "serve-warm"; tag = 3; min_jobs = 100; traced_jobs = 200 };
    { name = "compile-scale"; tag = 4; min_jobs = 100; traced_jobs = 45 } ]

let ref_path = Filename.concat "perfbench" "reference.txt"
let work_dir = Filename.concat "perfbench" "_work"

let die fmt =
  Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Set-up: every job is generated here, before any timing             *)
(* ------------------------------------------------------------------ *)

type state = {
  refs : (string, string) Hashtbl.t;
  jobs : Work.job array;
  env : Work.serve_env option;
}

let setup w seed =
  let refs = Work.load_refs ref_path in
  let rng = Random.State.make [| seed; w.tag |] in
  let warm kind =
    ignore
      (Work.Catalog.run ~kind ~engine:false ~seeds:[ 1_000_000 ] ())
  in
  let jobs, env =
    match w.name with
    | "campaign-cold" ->
      Array.iter warm Work.cold_kinds;
      (Work.cold_jobs rng, None)
    | "litmus-enum" ->
      ignore (Work.Catalog.litmus_result ~bound:1 ());
      (Work.litmus_jobs rng, None)
    | "serve-warm" ->
      let plan = Work.serve_plan rng in
      let root =
        Filename.concat work_dir (Printf.sprintf "serve-%d" (Unix.getpid ()))
      in
      at_exit (fun () -> Work.rm_rf root);
      (Work.serve_jobs plan rng, Some (Work.serve_setup ~root plan))
    | _ ->
      ignore
        (Automode_core.Sim.index
           (Work.Workloads.random_dfd_component ~seed:0 ~n:50));
      (Work.compile_jobs rng, None)
  in
  { refs; jobs = Array.of_list jobs; env }

(* ------------------------------------------------------------------ *)
(* Statistics                                                         *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = scan () in
  close_in ic;
  float_of_int kb /. 1024.

(* ------------------------------------------------------------------ *)
(* Running jobs                                                       *)
(* ------------------------------------------------------------------ *)

type result = {
  latency : float;  (* seconds, submission to report in hand *)
  cases : int;
  digest : string;  (* "" when the job raised *)
  ok : bool;        (* matched its reference and passed [after] *)
}

let job_id prefix i = Printf.sprintf "%s%d" prefix i

let check st i (o : Work.outcome) latency =
  let digest = Work.hex o.Work.report in
  let want = Hashtbl.find_opt st.refs (Work.key st.jobs.(i)) in
  let after = o.Work.after () in
  let ok = want = Some digest && after in
  if not ok then
    prerr_endline
      (Printf.sprintf "perfbench: job %d (%s) %s" i (Work.key st.jobs.(i))
         (if want = None then "has no reference"
          else if want <> Some digest then "report mismatches its reference"
          else "failed its oracle check"));
  { latency; cases = o.Work.cases; digest; ok }

let failed_job i e t0 =
  prerr_endline
    (Printf.sprintf "perfbench: job %d raised %s" i (Printexc.to_string e));
  { latency = Unix.gettimeofday () -. t0; cases = 0; digest = ""; ok = false }

let run_plain st ~prefix i =
  let t0 = Unix.gettimeofday () in
  match Work.run st.refs st.env ~id:(job_id prefix i) st.jobs.(i) with
  | o -> check st i o (Unix.gettimeofday () -. t0)
  | exception e -> failed_job i e t0

let run_traced st ~prefix i =
  Spans.current_job := i;
  let t0 = Unix.gettimeofday () in
  match Work.run_traced st.refs st.env ~id:(job_id prefix i) st.jobs.(i) with
  | o, latency -> check st i o latency
  | exception e -> failed_job i e t0

(* Closed loop: one job at a time until [seconds] have passed and at
   least [min_jobs] jobs ran (bounded at 120 s of wall time). *)
let closed_loop st ~seconds ~min_jobs ~max_jobs =
  let n = Array.length st.jobs in
  let start = Unix.gettimeofday () in
  let out = ref [] and i = ref 0 in
  let elapsed () = Unix.gettimeofday () -. start in
  while
    !i < max_jobs
    && (!i < min_jobs || elapsed () < seconds)
    && elapsed () < 120.
  do
    if !i = n then
      prerr_endline "perfbench: job list exhausted, repeating it";
    out := run_plain st ~prefix:"j" (!i mod n) :: !out;
    incr i
  done;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~results ~metrics =
  let attempted = List.length results in
  let failed = List.length (List.filter (fun r -> not r.ok) results) in
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_num (if Float.is_nan v then 0. else v))
          unit)
      metrics
  in
  Printf.eprintf "perfbench: %d jobs attempted, %d failed (failed_share %.4f)\n"
    attempted failed
    (float_of_int failed /. float_of_int (max 1 attempted));
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " fields);
  if failed > 0 then exit 1

let sum_latency rs = List.fold_left (fun a r -> a +. r.latency) 0. rs

let end_to_end results =
  let lat = Array.of_list (List.map (fun r -> r.latency) results) in
  Array.sort compare lat;
  let busy = sum_latency results in
  let cases = List.fold_left (fun a r -> a + r.cases) 0 results in
  [ ("jobs_per_s", float_of_int (List.length results) /. busy, "1/s");
    ("job_p50_ms", 1000. *. quantile lat 0.5, "ms");
    ("job_p90_ms", 1000. *. quantile lat 0.9, "ms");
    ("cases_per_s", float_of_int cases /. busy, "1/s");
    ("peak_rss_mb", peak_rss_mb (), "MB") ]

(* The traced sink: the standard probe routing into a fresh registry,
   plus the catalog span inside [Daemon.run], bounded by the daemon's
   own [serve.jobs.accepted] count and [serve.job.latency] sample. *)
let traced_sink metrics =
  let std = Probe.standard metrics in
  let catalog_start = ref nan in
  { std with
    Probe.on_count =
      (fun key by ->
        if key = "serve.jobs.accepted" then
          catalog_start := Unix.gettimeofday ();
        std.Probe.on_count key by);
    on_sample =
      (fun key v ->
        if key = "serve.job.latency" then
          Spans.add ~name:"serve.catalog" ~start:!catalog_start
            ~stop:(Unix.gettimeofday ());
        std.Probe.on_sample key v) }

(* [a / (a + b)], 0 when both are 0. *)
let share a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

(* Mean [Sim.index] time per call at each compile-scale model size: the
   compile curve. *)
let index_curve st =
  Array.to_list
    (Array.map
       (fun n ->
         let total = ref 0. and calls = ref 0 in
         for i = 0 to !Spans.len - 1 do
           let s = !Spans.spans.(i) in
           if s.Spans.name = "sim.index" then
             match st.jobs.(s.Spans.job) with
             | Work.Compile { n = n'; _ } when n' = n ->
               total := !total +. Spans.dur s;
               incr calls
             | _ -> ()
         done;
         ( Printf.sprintf "sim.index.n%d.ms" n,
           (if !calls = 0 then 0. else 1000. *. !total /. float_of_int !calls),
           "ms" ))
       Work.compile_sizes)

let per_layer st ~metrics ~untraced ~traced =
  let layers = Spans.by_layer () in
  let find name =
    match List.find_opt (fun (n, _, _) -> n = name) layers with
    | Some (_, t, c) -> (1000. *. t, c)
    | None -> (0., 0)
  in
  let count key = Option.value ~default:0 (Metrics.value metrics key) in
  let timed ?(as_ = "") name =
    let ms, calls = find name in
    let base = if as_ = "" then name else as_ in
    [ (base ^ ".ms", ms, "ms");
      (name ^ ".calls", float_of_int calls, "count") ]
  in
  let cnt key = [ (key, float_of_int (count key), "count") ] in
  let hits = count "serve.cache.hit" and misses = count "serve.cache.miss" in
  let unique = count "litmus.scenarios.unique" in
  let evaluated = count "litmus.scenarios.evaluated" in
  List.concat
    [ timed "sim.index"; index_curve st; timed "causality.order";
      cnt "sim.ticks";
      timed "sim.run"; cnt "sim.snapshot.capture"; cnt "sim.snapshot.restore";
      [ ( "robust.prefix.shared_ratio",
          share
            (count "campaign.prefix.shared_ticks")
            (count "campaign.prefix.replayed_ticks"),
          "ratio" ) ];
      timed "robust.run_seeds"; timed "robust.shrink"; timed "proptest.run";
      timed "proptest.shrink"; timed "osek.net_campaign";
      timed "litmus.enumerate"; timed "litmus.synth";
      [ ( "litmus.unique_ratio",
          (if evaluated = 0 then 0.
           else float_of_int unique /. float_of_int evaluated),
          "ratio" ) ];
      timed "render"; timed "serve.parse"; timed "serve.catalog";
      timed ~as_:"serve.daemon.self" "serve.daemon"; timed "serve.digest";
      [ ("serve.cache.hits", float_of_int hits, "count");
        ("serve.cache.misses", float_of_int misses, "count");
        ("serve.cache.hit_ratio", share hits misses, "ratio");
        ( "obs.trace_overhead_pct",
          100. *. ((sum_latency traced /. sum_latency untraced) -. 1.),
          "%" );
        ("traced.jobs", float_of_int (List.length traced), "count") ] ]

(* Each job of a fixed prefix runs untraced and traced back to back (in
   alternating order), so both see the same machine; serve jobs run in
   two environments that start from the same pre-warmed cache files.  Each
   traced report must equal its untraced twin byte for byte. *)
let traced_run w st ~k ~seed =
  let k = min k (Array.length st.jobs) in
  let twin = { st with env = Option.map Work.serve_twin st.env } in
  let metrics = Metrics.create () in
  let sink = traced_sink metrics in
  Spans.reset ();
  let plain i = run_plain st ~prefix:"u" i in
  let traced i =
    Spans.on := true;
    let r = Probe.with_sink sink (fun () -> run_traced twin ~prefix:"t" i) in
    Spans.on := false;
    r
  in
  let pairs =
    List.init k (fun i ->
        if i mod 2 = 0 then
          let u = plain i in
          (u, traced i)
        else
          let t = traced i in
          (plain i, t))
  in
  let untraced = List.map fst pairs in
  let traced =
    List.map
      (fun (u, t) ->
        if u.digest = t.digest then t
        else begin
          prerr_endline "perfbench: traced report differs from untraced";
          { t with ok = false }
        end)
      pairs
  in
  Work.Cache.mkdir_p work_dir;
  Spans.write_chrome
    (Filename.concat work_dir
       (Printf.sprintf "trace-%s-%d.json" w.name seed));
  (untraced @ traced, per_layer st ~metrics ~untraced ~traced)

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and smoke = ref false and setup_only = ref false in
  let record = ref "" and domains = ref 1 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--smoke", Arg.Set smoke, " one job (self-test size)");
      ("--setup-only", Arg.Set setup_only, " set up, then exit");
      ("--record", Arg.Set_string record, "FILE record reference digests");
      ("--domains", Arg.Set_int domains, "D domains for --record") ]
    (fun a -> die "unexpected argument %s" a)
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !record <> "" then begin
    let n = Work.record ~domains:!domains !record in
    Printf.printf "recorded %d reference digests in %s\n" n !record;
    exit 0
  end;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> die "unknown workload %S" !workload
  in
  if not (Sys.file_exists ref_path) then die "missing %s" ref_path;
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let st = setup w !seed in
  if !setup_only then begin
    (* the caller measures process start to this instant *)
    Printf.printf "ready %.6f\n" (Unix.gettimeofday ());
    exit 0
  end;
  if !trace = 0 then begin
    let results =
      if !smoke then closed_loop st ~seconds:0. ~min_jobs:1 ~max_jobs:1
      else
        closed_loop st ~seconds:!seconds ~min_jobs:w.min_jobs
          ~max_jobs:max_int
    in
    print_result ~results ~metrics:(end_to_end results)
  end
  else begin
    let k = if !smoke then 1 else w.traced_jobs in
    let results, metrics = traced_run w st ~k ~seed:!seed in
    print_result ~results ~metrics
  end
