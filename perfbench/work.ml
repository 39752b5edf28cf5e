(* The four workloads: their job pools, job-list generation from the
   workload seed, and one job run untraced (the measured path) or traced
   (the same job driven through the public sub-steps of its catalog
   entry point, with spans around each).

   Every job parameter is drawn by the seed from a finite pool, so that
   each job's report has a reference digest in [reference.txt], recorded
   with [--record] at the commit that introduced the benchmark. *)

open Automode_core
open Automode_robust
open Automode_casestudy
module Cache = Automode_serve.Cache
module Catalog = Automode_serve.Catalog
module Daemon = Automode_serve.Daemon
module Job = Automode_serve.Job
module Model_digest = Automode_serve.Digest
module Builder = Automode_proptest.Builder
module Synth = Automode_litmus.Synth
module Space = Automode_litmus.Space
module Workloads = Automode_workloads.Workloads

(* First 16 hex digits of the MD5 of a report or trace. *)
let hex s = String.sub (Stdlib.Digest.to_hex (Stdlib.Digest.string s)) 0 16

let range a w = List.init w (fun i -> a + i)

(* ------------------------------------------------------------------ *)
(* Pools                                                              *)
(* ------------------------------------------------------------------ *)

(* campaign-cold: per kind, consecutive non-overlapping windows of 2..8
   seeds, so no two jobs of a run share a seed. *)
let cold_kinds = [| Job.Robustness; Job.Guard; Job.Redund; Job.Proptest |]
let cold_pool = 196

let cold_windows =
  Array.mapi
    (fun ki _ ->
      let start = ref 1 in
      Array.init cold_pool (fun j ->
          let w = 2 + ((j * 5) + ki) mod 7 in
          let s = range !start w in
          start := !start + w;
          s))
    cold_kinds

(* litmus-enum: bound 2 with a cap of 30..120 scenarios (120 is the
   whole k=2 space) or bound 3 with a cap of 121..200, drawn in strata
   so every run sees about the same mean cap. *)
let litmus_caps = function 2 -> range 30 91 | _ -> range 121 80

(* serve-warm: windows of 20 seeds sliding by 2, so 18 of a job's 20
   seeds were stored by the job before it; proptest jobs resubmit one of
   9 pre-warmed windows, and every tenth is a fresh window. *)
let serve_width = 20
let serve_slide = 2
let serve_pool = 510
let serve_window kind i =
  let base = match kind with Job.Guard -> 40001 | _ -> 20001 in
  range (base + (serve_slide * i)) serve_width
let prop_resubmit r = range (30001 + (4 * r)) 4
let prop_fresh q = range (31001 + (4 * q)) 4
let litmus_serve_key = "lit:2:100000"

(* compile-scale: distinct random DFDs per size, swept over 4 seeds of a
   32-tick horizon without shrinking. *)
let compile_sizes = [| 200; 400; 800 |]
let compile_pool = 120
let compile_rounds = 80
let compile_ticks = 32
let compile_seeds m = range ((4 * m) + 1) 4

let compile_model ~n ~m =
  let comp = Workloads.random_dfd_component ~seed:((1000 * n) + m) ~n in
  match comp.Model.comp_behavior with
  | Model.B_dfd net -> (net, comp)
  | _ -> assert false

let compile_inputs : Sim.input_fn =
 fun t -> [ ("src", Value.Present (Value.Float (float_of_int (t mod 7) -. 3.))) ]

let compile_faults seed =
  [ Fault.spike ~flow:"src" ~value:(Value.Float 50.)
      (Fault.Window { from_tick = 8 + (seed mod 16); until_tick = 10 + (seed mod 16) });
    Fault.dropout ~flow:"src"
      (Fault.Window { from_tick = 4 + (seed mod 24); until_tick = 6 + (seed mod 24) }) ]

let compile_scenario ?index ~n ~m comp =
  Scenario.make ?index
    ~name:(Printf.sprintf "rand%d-%d" n m)
    ~component:comp ~ticks:compile_ticks ~inputs:compile_inputs
    ~faults:compile_faults
    ~monitors:[ Monitor.range ~name:"dst-bounded" ~flow:"dst" ~lo:(-100.) ~hi:100. ]
    ()

(* The interpreted oracle's trace of one compile-scale model on its
   first sweep seed. *)
let compile_oracle_trace ~m comp =
  let seed = List.hd (compile_seeds m) in
  Sim.run ~ticks:compile_ticks
    ~inputs:(Fault.apply (compile_faults seed) compile_inputs)
    comp

(* ------------------------------------------------------------------ *)
(* Jobs                                                               *)
(* ------------------------------------------------------------------ *)

type job =
  | Campaign of { kind : Job.kind; seeds : int list }
  | Litmus of { bound : int; cap : int }
  | Serve of { kind : Job.kind; seeds : int list }
  | Compile of { n : int; m : int; net : Model.network; comp : Model.component }

let tag = function
  | Job.Robustness -> "rob"
  | Job.Guard -> "grd"
  | Job.Redund -> "red"
  | Job.Proptest -> "prop"
  | Job.Litmus -> "lit"

let window_key kind seeds =
  Printf.sprintf "%s:%d-%d" (tag kind) (List.hd seeds)
    (List.nth seeds (List.length seeds - 1))

let key = function
  | Campaign { kind; seeds } -> window_key kind seeds
  | Serve { kind = Job.Litmus; _ } -> litmus_serve_key
  | Serve { kind; seeds } -> window_key kind seeds
  | Litmus { bound; cap } -> Printf.sprintf "lit:%d:%d" bound cap
  | Compile { n; m; _ } -> Printf.sprintf "cmp:%d:%d" n m

(* Cases a job resolves: seed x leg for sweeps, generated sequences for
   proptest (2 specs x 2 iterations per seed), and the 120 scenarios of
   the bound-2 space for a serve litmus job. *)
let sweep_cases kind seeds =
  let w = List.length seeds in
  match kind with
  | Job.Robustness -> w
  | Job.Guard -> 3 * w
  | Job.Redund -> 7 * w
  | Job.Proptest -> 4 * w
  | Job.Litmus -> 120

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Closed-loop job lists are built in rounds that hold each job type
   once (in a seed-drawn order), so every run sees the same mix. *)
let rounds rng n types make =
  List.concat
    (List.init n (fun r ->
         Array.to_list (Array.map (fun t -> make r t) (shuffle rng types))))

(* A seed-drawn permutation of [0, 7 * blocks) in which every 7
   consecutive draws take one index of each block of 7 consecutive
   indices: with the cycle-of-7 window widths above, every 7 rounds hold
   each width once. *)
let block_order rng blocks =
  Array.concat
    (List.map
       (fun b -> shuffle rng (Array.init 7 (fun i -> (7 * b) + i)))
       (Array.to_list (shuffle rng (Array.init blocks Fun.id))))

let cold_jobs rng =
  let perms = Array.map (fun _ -> block_order rng (cold_pool / 7)) cold_kinds in
  rounds rng cold_pool [| 0; 1; 2; 3 |] (fun r ki ->
      Campaign
        { kind = cold_kinds.(ki); seeds = cold_windows.(ki).(perms.(ki).(r)) })

(* [n] draws from [values] in cycles that each take one random value of
   every stratum (contiguous slice of [values]), in a random order. *)
let stratified rng ~strata values n =
  let values = Array.of_list values in
  let size = Array.length values / strata in
  let cycle () =
    Array.map
      (fun k ->
        let extra = if k = strata - 1 then Array.length values mod strata else 0 in
        values.((k * size) + Random.State.int rng (size + extra)))
      (shuffle rng (Array.init strata Fun.id))
  in
  Array.sub (Array.concat (List.init ((n / strata) + 1) (fun _ -> cycle ()))) 0 n

let litmus_rounds = 60

let litmus_jobs rng =
  let k2 = stratified rng ~strata:13 (litmus_caps 2) (3 * litmus_rounds) in
  let k3 = stratified rng ~strata:10 (litmus_caps 3) litmus_rounds in
  rounds rng litmus_rounds [| 0; 1; 2; 3 |] (fun r slot ->
      if slot < 3 then Litmus { bound = 2; cap = k2.((3 * r) + slot) }
      else Litmus { bound = 3; cap = k3.(r) })

(* [serve_start] is the sliding windows' first index; the window before
   it is pre-warmed in set-up. *)
type serve_plan = {
  serve_start : int;
  resubmit : int array;  (* order of the pre-warmed proptest windows *)
}

let serve_rounds = serve_pool - 10
let resubmit_windows = 9

let serve_plan rng =
  { serve_start = 1 + Random.State.int rng 10;
    resubmit = shuffle rng (Array.init resubmit_windows Fun.id) }

let serve_jobs plan rng =
  let kinds = [| Job.Robustness; Job.Guard; Job.Proptest; Job.Litmus |] in
  rounds rng serve_rounds kinds (fun r kind ->
      match kind with
      | Job.Robustness | Job.Guard ->
        Serve { kind; seeds = serve_window kind (plan.serve_start + r) }
      | Job.Proptest ->
        let seeds =
          if r mod 10 = 9 then prop_fresh (r / 10)
          else prop_resubmit plan.resubmit.(r mod 10)
        in
        Serve { kind; seeds }
      | _ -> Serve { kind = Job.Litmus; seeds = [] })

let compile_jobs rng =
  let perms =
    Array.map (fun _ -> shuffle rng (Array.init compile_pool Fun.id)) compile_sizes
  in
  rounds rng compile_rounds [| 0; 1; 2 |] (fun r si ->
      let n = compile_sizes.(si) and m = perms.(si).(r) in
      let net, comp = compile_model ~n ~m in
      Compile { n; m; net; comp })

(* ------------------------------------------------------------------ *)
(* The serve environment: spool, results and cache directories        *)
(* ------------------------------------------------------------------ *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Cache.mkdir_p dst;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  end
  else write_file dst (read_file src)

type serve_env = {
  dir : string;  (* this environment's cache, spool and results *)
  cache : Cache.t;
}

let spool env = Filename.concat env.dir "spool"
let results env = Filename.concat env.dir "results"

(* An environment over the cache files in [dir/cache], with a cold
   memory tier. *)
let serve_env dir =
  Cache.mkdir_p (Filename.concat dir "spool");
  { dir; cache = Cache.create ~dir:(Filename.concat dir "cache") () }

let serve_line id = function
  | Serve { kind = Job.Litmus; _ } ->
    Printf.sprintf {|{"id":"%s","kind":"litmus","bound":2}|} id
  | Serve { kind; seeds } ->
    Printf.sprintf {|{"id":"%s","kind":"%s","seeds":{"from":%d,"to":%d}}|} id
      (Job.kind_to_string kind) (List.hd seeds)
      (List.nth seeds (List.length seeds - 1))
  | _ -> invalid_arg "serve_line"

(* Pre-warm a fresh cache through the same catalog entry point and job
   defaults the daemon uses: the window before each sliding sequence,
   the resubmitted proptest windows and the k=2 litmus space. *)
let serve_setup ~root plan =
  rm_rf root;
  let env = serve_env (Filename.concat root "a") in
  let warm kind seeds =
    ignore (Catalog.run ~cache:env.cache ~kind ~engine:false ~seeds ())
  in
  warm Job.Robustness (serve_window Job.Robustness (plan.serve_start - 1));
  warm Job.Guard (serve_window Job.Guard (plan.serve_start - 1));
  Array.iter (fun r -> warm Job.Proptest (prop_resubmit r)) plan.resubmit;
  warm Job.Litmus [];
  serve_env env.dir

(* A second environment starting from a copy of [env]'s cache files;
   take it before [env] runs a job. *)
let serve_twin env =
  let dir = Filename.concat (Filename.dirname env.dir) "b" in
  copy_tree (Filename.concat env.dir "cache") (Filename.concat dir "cache");
  serve_env dir

let serve_config env =
  { Daemon.spool = spool env; results = results env; cache = Some env.cache;
    workers = 1; domains = 1; poll_s = 0.001; once = true; max_jobs = None;
    socket = None; reclaim_s = None }

(* One daemon round trip: submission is the atomic spool write, the job
   ends when its report file has been read back.  [drain] wraps the
   daemon call (the traced run times it). *)
let serve_round_trip ?(drain = fun f -> f ()) env ~id line =
  let tmp = Filename.concat (spool env) (id ^ ".tmp") in
  write_file tmp (line ^ "\n");
  Sys.rename tmp (Filename.concat (spool env) (id ^ ".json"));
  let s = drain (fun () -> Daemon.run (serve_config env)) in
  if s.Daemon.completed <> 1 || s.Daemon.failed <> 0 then
    failwith
      (Printf.sprintf "daemon: %d completed, %d failed" s.Daemon.completed
         s.Daemon.failed);
  read_file (Filename.concat (results env) (id ^ ".report.txt"))

(* ------------------------------------------------------------------ *)
(* Running one job                                                    *)
(* ------------------------------------------------------------------ *)

(* [after] runs outside the job's timed window: it checks what the
   report digest cannot (the compile-scale oracle).  Serve jobs leave
   their files in place until the run ends, so that no deletions run
   between jobs. *)
type outcome = {
  report : string;
  cases : int;
  after : unit -> bool;
}

let ok () = true

let oracle_ok refs ~n ~m scn =
  let seed = List.hd (compile_seeds m) in
  let tr =
    Scenario.trace scn ~faults:(Scenario.faults scn ~seed) ~ticks:compile_ticks
  in
  Hashtbl.find_opt refs (Printf.sprintf "orc:%d:%d" n m)
  = Some (hex (Trace.to_csv tr))

let run refs env ~id job =
  match job with
  | Campaign { kind; seeds } ->
    let o = Catalog.run ~shrink:true ~kind ~engine:false ~seeds () in
    { report = o.Catalog.report; cases = sweep_cases kind seeds; after = ok }
  | Litmus { bound; cap } ->
    let r = Catalog.litmus_result ~bound ~max_scenarios:cap () in
    { report = Synth.to_text r; cases = r.Synth.res_evaluated; after = ok }
  | Compile { n; m; comp; _ } ->
    let scn = compile_scenario ~n ~m comp in
    let c = Scenario.sweep ~shrink:false scn ~seeds:(compile_seeds m) in
    { report = Report.to_text c; cases = List.length c.Scenario.seeds;
      after = (fun () -> oracle_ok refs ~n ~m scn) }
  | Serve { kind; seeds } ->
    { report = serve_round_trip (Option.get env) ~id (serve_line id job);
      cases = sweep_cases kind seeds; after = ok }

(* --- traced: the same job through its public sub-steps ------------ *)

let traced_sweep ?(shrink = true) scn ~seeds =
  let results =
    Spans.with_ "robust.run_seeds" (fun () -> Scenario.run_seeds scn ~seeds)
  in
  let failures =
    Spans.with_ "robust.shrink" (fun () ->
        List.concat_map (Scenario.seed_failures ~shrink scn) results)
  in
  { Scenario.scenario = Scenario.name scn; horizon = Scenario.ticks scn;
    seeds; results; failures }

(* [Builder.run] is expand -> prefix-shared traces -> monitors, then
   shrinking per case; the spec's observers only feed probes and are
   not called here. *)
let traced_builder spec ~seeds =
  Builder.prepare spec;
  let cases =
    Spans.with_ "proptest.run" (fun () ->
        let specs =
          Array.of_list
            (List.concat_map
               (fun seed ->
                 List.init (Builder.iterations spec) (fun i -> (seed, i + 1)))
               seeds)
        in
        let opss =
          Array.map
            (fun (seed, iteration) -> Builder.expand spec ~seed ~iteration)
            specs
        in
        let traces =
          Spans.with_ "sim.run" (fun () ->
              Builder.trace_cases ~share:true spec ~seed:(fst specs.(0))
                ~ticks:(Builder.ticks spec) opss)
        in
        Array.to_list
          (Array.mapi
             (fun i tr ->
               let seed, iteration = specs.(i) in
               { Builder.seed; iteration; ops = opss.(i);
                 verdicts = Builder.eval_monitors spec tr })
             traces))
  in
  let failures =
    Spans.with_ "proptest.shrink" (fun () ->
        List.concat_map (Builder.case_failures ~shrink:true spec) cases)
  in
  { Builder.spec_name = Builder.name spec; horizon = Builder.ticks spec;
    seeds; case_iterations = Builder.iterations spec;
    gens = Builder.generators spec; cases; failures }

let render f = Spans.with_ "render" f

(* The catalog's report formats for each kind (see [Serve.Catalog.run]). *)
let traced_campaign kind seeds =
  match kind with
  | Job.Robustness ->
    let c = traced_sweep Robustness.door_lock_scenario ~seeds in
    render (fun () -> Report.to_text c)
  | Job.Guard ->
    let cmp =
      { Guarded.unguarded = traced_sweep Guarded.unguarded_scenario ~seeds;
        guarded = traced_sweep Guarded.guarded_scenario ~seeds }
    in
    let recovery = traced_sweep Guarded.recovery_scenario ~seeds in
    render (fun () ->
        Format.asprintf "%a%-20s %d/%d seeds failing@." Guarded.pp_comparison
          cmp "door-lock-recovery"
          (List.length recovery.Scenario.failures)
          (List.length seeds))
  | Job.Redund ->
    let sweep scn = traced_sweep scn ~seeds in
    let channel dual =
      Spans.with_ "osek.net_campaign" (fun () ->
          Replicated.channel_campaign ~horizon:200_000 ~dual ~seeds ())
    in
    let replicated = sweep Replicated.replicated_scenario in
    let simplex = sweep Replicated.simplex_scenario in
    let reset = sweep Replicated.reset_scenario in
    let tmr = sweep Replicated.tmr_scenario in
    let tmr_simplex = sweep Replicated.tmr_simplex_scenario in
    let dual = channel true in
    let single = channel false in
    let r =
      { Replicated.replicated; simplex; reset; tmr; tmr_simplex; dual; single }
    in
    render (fun () -> Format.asprintf "%a" Replicated.pp_report r)
  | Job.Proptest ->
    let unguarded = traced_builder Propcase.unguarded ~seeds in
    let guarded = traced_builder Propcase.guarded ~seeds in
    render (fun () -> Propcase.to_text { Propcase.unguarded; guarded })
  | Job.Litmus -> invalid_arg "traced_campaign"

(* The digests [Serve.Cached] and [Serve.Catalog] derive a job's cache
   keys from (scenario, per-seed fault catalog, components). *)
let serve_digests kind seeds =
  let scenario scn =
    ignore (Model_digest.scenario scn);
    List.iter
      (fun seed -> ignore (Model_digest.faults (Scenario.faults scn ~seed)))
      seeds
  in
  match kind with
  | Job.Robustness -> scenario Robustness.door_lock_scenario
  | Job.Guard ->
    List.iter scenario
      [ Guarded.unguarded_scenario; Guarded.guarded_scenario;
        Guarded.recovery_scenario ]
  | _ ->
    ignore (Model_digest.component Door_lock.component);
    ignore (Model_digest.component Guarded.component);
    ignore
      (Model_digest.string (String.concat "," (List.map string_of_int seeds)))

(* Side spans run first, outside the job span; the returned latency is
   the job span's duration. *)
let run_traced refs env ~id job =
  (match job with
   | Litmus { bound; cap } ->
     Spans.with_ ~side:true "litmus.enumerate" (fun () ->
         ignore
           (Space.cap cap (Space.enumerate ~alphabet:Litmus_lock.alphabet ~bound)))
   | Compile { net; _ } ->
     Spans.with_ ~side:true "causality.order" (fun () ->
         ignore (Causality.evaluation_order net))
   | Serve { kind; seeds } ->
     Spans.with_ ~side:true "serve.digest" (fun () -> serve_digests kind seeds)
   | Campaign _ -> ());
  let t0 = Unix.gettimeofday () in
  let o =
    Spans.with_ "job" (fun () ->
        match job with
        | Campaign { kind; seeds } ->
          { report = traced_campaign kind seeds;
            cases = sweep_cases kind seeds; after = ok }
        | Litmus { bound; cap } ->
          let r =
            Spans.with_ "litmus.synth" (fun () ->
                Catalog.litmus_result ~bound ~max_scenarios:cap ())
          in
          { report = render (fun () -> Synth.to_text r);
            cases = r.Synth.res_evaluated; after = ok }
        | Compile { n; m; comp; _ } ->
          let ix = Spans.with_ "sim.index" (fun () -> Sim.index comp) in
          let scn = compile_scenario ~index:(fun _ -> ix) ~n ~m comp in
          let c = traced_sweep ~shrink:false scn ~seeds:(compile_seeds m) in
          { report = render (fun () -> Report.to_text c);
            cases = List.length c.Scenario.seeds;
            after = (fun () -> oracle_ok refs ~n ~m scn) }
        | Serve { kind; seeds } ->
          let line = serve_line id job in
          (match Spans.with_ "serve.parse" (fun () -> Job.parse_line line) with
           | Ok _ -> ()
           | Error e -> failwith e);
          { report =
              serve_round_trip (Option.get env) ~id line
                ~drain:(Spans.with_ "serve.daemon");
            cases = sweep_cases kind seeds; after = ok })
  in
  (o, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Reference digests                                                  *)
(* ------------------------------------------------------------------ *)

let load_refs path =
  let tbl = Hashtbl.create 4096 in
  let ic = open_in path in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ k; d ] -> Hashtbl.replace tbl k d
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  tbl

(* Every pool entry's reference, computed through the looped
   (non-prefix-shared) execution path and, for compile-scale models, the
   interpreted oracle. *)
let record ~domains path =
  let campaign kind seeds () =
    (Catalog.run ~shrink:true ~prefix_share:false ~kind ~engine:false ~seeds
       ())
      .Catalog.report
  in
  let entries =
    List.concat
      [ List.concat
          (Array.to_list
             (Array.mapi
                (fun ki kind ->
                  List.map
                    (fun seeds -> (window_key kind seeds, campaign kind seeds))
                    (Array.to_list cold_windows.(ki)))
                cold_kinds));
        List.concat_map
          (fun bound ->
            List.map
              (fun cap ->
                ( Printf.sprintf "lit:%d:%d" bound cap,
                  fun () ->
                    Synth.to_text
                      (Catalog.litmus_result ~prefix_share:false ~bound
                         ~max_scenarios:cap ()) ))
              (litmus_caps bound))
          [ 2; 3 ];
        [ ( litmus_serve_key,
            fun () ->
              Synth.to_text
                (Catalog.litmus_result ~prefix_share:false ~bound:2 ()) ) ];
        List.concat_map
          (fun kind ->
            List.init serve_pool (fun i ->
                let seeds = serve_window kind i in
                (window_key kind seeds, campaign kind seeds)))
          [ Job.Robustness; Job.Guard ];
        List.init resubmit_windows (fun r ->
            let seeds = prop_resubmit r in
            (window_key Job.Proptest seeds, campaign Job.Proptest seeds));
        List.init (serve_rounds / 10 + 1) (fun q ->
            let seeds = prop_fresh q in
            (window_key Job.Proptest seeds, campaign Job.Proptest seeds));
        List.concat_map
          (fun n ->
            List.concat
              (List.init compile_pool (fun m ->
                   [ ( Printf.sprintf "cmp:%d:%d" n m,
                       fun () ->
                         let _, comp = compile_model ~n ~m in
                         Report.to_text
                           (Scenario.sweep ~shrink:false ~prefix_share:false
                              (compile_scenario ~n ~m comp)
                              ~seeds:(compile_seeds m)) );
                     ( Printf.sprintf "orc:%d:%d" n m,
                       fun () ->
                         let _, comp = compile_model ~n ~m in
                         Trace.to_csv (compile_oracle_trace ~m comp) ) ])))
          (Array.to_list compile_sizes) ]
  in
  let digests =
    Parallel.map ~domains (fun (k, f) -> (k, hex (f ()))) entries
  in
  let oc = open_out path in
  List.iter (fun (k, d) -> Printf.fprintf oc "%s %s\n" k d) digests;
  close_out oc;
  List.length digests
