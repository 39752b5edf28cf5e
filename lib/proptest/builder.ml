open Automode_core
open Automode_robust

type engine = Interpreted | Indexed

(* Both engines behind one closure type: the indexed form is forced
   lazily (and shared across a domain fan-out via [prepare]), and every
   run creates fresh run-time state, so one spec can drive many
   concurrent simulations. *)
type runner = schedule:Clock.schedule -> ticks:int -> inputs:Sim.input_fn -> Trace.t

type t = {
  spec_name : string;
  comp : Model.component;
  spec_ticks : int;
  inputs : Sim.input_fn;
  gens : Opgen.t list;
  min_ops : int;
  max_ops : int;
  base_faults : int -> Fault.t list;
  mons : Monitor.t list;
  observers : (Trace.t -> unit) list;
  events : (string * string) list;  (* (event clock, flow), newest first *)
  base_schedule : Clock.schedule;
  engine : engine;
  ixc : Sim.indexed Lazy.t;   (* shared by the Indexed runner and
                                 {!Exec.traces} *)
  runner : runner Lazy.t;
  iters : int;
}

let make_runner engine comp ixc =
  match engine with
  | Interpreted ->
    lazy
      (fun ~schedule ~ticks ~inputs -> Sim.run ~schedule ~ticks ~inputs comp)
  | Indexed ->
    lazy
      (let indexed = Lazy.force ixc in
       fun ~schedule ~ticks ~inputs ->
         Sim.run_indexed ~schedule ~ticks ~inputs indexed)

let spec ~name ~component ~ticks ?(inputs = Sim.no_inputs) () =
  if ticks < 0 then invalid_arg "Builder.spec: negative horizon";
  let ixc = lazy (Sim.index component) in
  { spec_name = name;
    comp = component;
    spec_ticks = ticks;
    inputs;
    gens = [];
    min_ops = 1;
    max_ops = 8;
    base_faults = (fun _ -> []);
    mons = [];
    observers = [];
    events = [];
    base_schedule = Clock.no_events;
    engine = Indexed;
    ixc;
    runner = make_runner Indexed component ixc;
    iters = 1 }

let with_ops ?(min_ops = 1) ?(max_ops = 8) gens t =
  if min_ops < 0 then invalid_arg "Builder.with_ops: negative min_ops";
  if max_ops < min_ops then invalid_arg "Builder.with_ops: max_ops < min_ops";
  { t with gens; min_ops; max_ops }

let with_base_faults base_faults t = { t with base_faults }
let with_monitors mons t = { t with mons = t.mons @ mons }

let with_derived_monitors ?ranges ?staleness t =
  { t with mons = t.mons @ Derive.monitors ?ranges ?staleness t.comp }

let with_observers observers t =
  { t with observers = t.observers @ observers }

let with_event ~event ~flow t = { t with events = (event, flow) :: t.events }
let with_schedule base_schedule t = { t with base_schedule }

let with_engine engine t =
  { t with engine; runner = make_runner engine t.comp t.ixc }

let with_iterations iters t =
  if iters < 1 then invalid_arg "Builder.with_iterations: non-positive count";
  { t with iters }

let name t = t.spec_name
let ticks t = t.spec_ticks
let component t = t.comp
let iterations t = t.iters
let monitors t = List.map Monitor.name t.mons
let generators t = List.map (fun g -> (Opgen.name g, Opgen.weight g)) t.gens
let prepare t =
  let _ : runner = Lazy.force t.runner in
  ()

let expand t ~seed ~iteration =
  if t.gens = [] then []
  else
    Opgen.expand ~gens:t.gens ~min_ops:t.min_ops ~max_ops:t.max_ops
      ~horizon:t.spec_ticks ~seed ~iteration

let faults_of t ~seed ~ops =
  t.base_faults seed @ List.concat_map Op.compile ops

(* Every declared event clock fires whenever a fault targets its flow —
   on top of the spec's base schedule — and keeps tracking the fault set
   as shrinking removes operations. *)
let schedule_of t faults =
  Fault.event_schedule ~base:t.base_schedule ~events:t.events faults

let trace_of t ~faults ~ticks =
  let inputs = Fault.apply faults t.inputs in
  (Lazy.force t.runner) ~schedule:(schedule_of t faults) ~ticks ~inputs

let verdicts_of t tr = List.map (fun m -> (Monitor.name m, Monitor.eval m tr)) t.mons

let run_faults t ~faults ~ticks = verdicts_of t (trace_of t ~faults ~ticks)

let run_ops t ~seed ~ops ~ticks =
  run_faults t ~faults:(faults_of t ~seed ~ops) ~ticks

let trace_ops t ~seed ~ops ~ticks =
  trace_of t ~faults:(faults_of t ~seed ~ops) ~ticks

(* Traces of many fault lists of one spec, trace i belonging to
   faultss.(i): the Indexed engine runs them through the campaign
   executor, the interpreted oracle loops. *)
let traces_of ?share t ~ticks faultss =
  match t.engine with
  | Indexed ->
    Exec.traces ?share ~ix:(Lazy.force t.ixc) ~ticks
      ~base_inputs:t.inputs ~base_schedule:t.base_schedule
      (Array.map
         (fun faults ->
           (faults, Fault.apply faults t.inputs, schedule_of t faults))
         faultss)
  | Interpreted ->
    (* force the runner before fanning out *)
    prepare t;
    Array.of_list
      (Parallel.map
         (fun faults -> trace_of t ~faults ~ticks)
         (Array.to_list faultss))

let trace_cases ?share t ~seed ~ticks opss =
  traces_of ?share t ~ticks
    (Array.map (fun ops -> faults_of t ~seed ~ops) opss)

let eval_monitors t tr = verdicts_of t tr

type case = {
  seed : int;
  iteration : int;
  ops : Op.t list;
  verdicts : (string * Monitor.verdict) list;
}

type shrunk = {
  shrunk_ops : Op.t list;
  shrunk_faults : Fault.t list;
  shrunk_ticks : int;
  shrunk_reason : string;
}

type failure = {
  fail_seed : int;
  fail_iteration : int;
  fail_monitor : string;
  verdict : Monitor.verdict;
  shrunk : shrunk option;
}

type campaign = {
  spec_name : string;
  horizon : int;
  seeds : int list;
  case_iterations : int;
  gens : (string * int) list;
  cases : case list;
  failures : failure list;
}

let run_case t ~seed ~iteration =
  let ops = expand t ~seed ~iteration in
  let tr = trace_of t ~faults:(faults_of t ~seed ~ops) ~ticks:t.spec_ticks in
  List.iter (fun obs -> obs tr) t.observers;
  { seed; iteration; ops; verdicts = verdicts_of t tr }

(* ------------------------------------------------------------------ *)
(* Sequence-level shrinking                                           *)
(* ------------------------------------------------------------------ *)

(* Split [ops] into [n] contiguous chunks (sizes differ by at most 1). *)
let chunks_of ops n =
  let len = List.length ops in
  let base = len / n and extra = len mod n in
  let rec go i remaining =
    if i >= n then []
    else
      let size = base + if i < extra then 1 else 0 in
      let chunk, rest =
        let rec take k = function
          | rest when k = 0 -> ([], rest)
          | [] -> ([], [])
          | x :: xs ->
            let taken, rest = take (k - 1) xs in
            (x :: taken, rest)
        in
        take size remaining
      in
      chunk :: go (i + 1) rest
  in
  go 0 ops

(* Classic ddmin over the operation list: try dropping whole chunks at
   increasing granularity until no chunk can be removed.  Every kept
   candidate has been re-run and observed to fail, and removal preserves
   order, so the result is a genuine failing subsequence. *)
let ddmin ~fails ops reason0 =
  let rec go ops n reason =
    let len = List.length ops in
    if len <= 1 then (ops, reason)
    else
      let n = min n len in
      let chunks = chunks_of ops n in
      let drop_chunk i =
        List.concat (List.filteri (fun j _ -> j <> i) chunks)
      in
      let rec try_chunk i =
        if i >= n then None
        else
          let candidate = drop_chunk i in
          match fails candidate with
          | Some reason' -> Some (candidate, reason')
          | None -> try_chunk (i + 1)
      in
      match try_chunk 0 with
      | Some (smaller, reason') -> go smaller (max (n - 1) 2) reason'
      | None -> if n >= len then (ops, reason) else go ops (2 * n) reason
  in
  go ops 2 reason0

(* Does [monitor] still fail when the case runs with this candidate?
   The reason string is what ddmin threads through, so the final shrunk
   replay reports the reason of the minimal candidate, not the original. *)
let still_fails ~run ~monitor ~faults ~ticks =
  match List.assoc_opt monitor (run ~faults ~ticks) with
  | Some (Monitor.Fail { reason; _ }) -> Some reason
  | Some Monitor.Pass | None -> None

let ddmin_ops ~fails ops =
  match fails ops with
  | None -> None
  | Some reason -> Some (ddmin ~fails ops reason)

let shrink_case t ~seed ~mon ~ops =
  let run_on_ops ~faults ~ticks = run_ops t ~seed ~ops:faults ~ticks in
  match
    still_fails ~run:run_on_ops ~monitor:mon ~faults:ops ~ticks:t.spec_ticks
  with
  | None -> None
  | Some reason0 ->
    (* phase 1: delta-debug the operation list (chunks, then the
       one-removal fixpoint + horizon prefix of Shrink.minimize) *)
    let ops1, _ =
      ddmin
        ~fails:(fun candidate ->
          still_fails ~run:run_on_ops ~monitor:mon ~faults:candidate
            ~ticks:t.spec_ticks)
        ops reason0
    in
    (match
       Shrink.minimize ~run:run_on_ops ~monitor:mon ~faults:ops1
         ~ticks:t.spec_ticks
     with
     | None -> None
     | Some op_outcome ->
       let min_ops = op_outcome.Shrink.faults in
       (* phase 2: the fault-subset + horizon-prefix pass over the
          compiled fault list of the minimal sequence *)
       let faults0 = faults_of t ~seed ~ops:min_ops in
       let shrunk_faults, shrunk_ticks, shrunk_reason =
         match
           Shrink.minimize
             ~run:(fun ~faults ~ticks -> run_faults t ~faults ~ticks)
             ~monitor:mon ~faults:faults0 ~ticks:op_outcome.Shrink.ticks
         with
         | Some o -> (o.Shrink.faults, o.Shrink.ticks, o.Shrink.reason)
         | None ->
           (faults0, op_outcome.Shrink.ticks, op_outcome.Shrink.reason)
       in
       Some { shrunk_ops = min_ops; shrunk_faults; shrunk_ticks; shrunk_reason })

let case_failures ?(shrink = true) t case =
  List.filter_map
    (fun (mon, v) ->
      if not (Monitor.is_fail v) then None
      else
        let shrunk =
          if shrink then
            shrink_case t ~seed:case.seed ~mon ~ops:case.ops
          else None
        in
        Some
          { fail_seed = case.seed;
            fail_iteration = case.iteration;
            fail_monitor = mon;
            verdict = v;
            shrunk })
    case.verdicts

(* Expand every (seed, iteration) case's op sequence up front, simulate
   them all through [traces_of], then run observers and monitors in
   case order. *)
let run ?(shrink = true) ?prefix_share t ~seeds =
  prepare t;
  let specs =
    Array.of_list
      (List.concat_map
         (fun seed -> List.init t.iters (fun i -> (seed, i + 1)))
         seeds)
  in
  let opss =
    Array.map (fun (seed, iteration) -> expand t ~seed ~iteration) specs
  in
  let traces =
    traces_of ?share:prefix_share t ~ticks:t.spec_ticks
      (Array.mapi (fun i ops -> faults_of t ~seed:(fst specs.(i)) ~ops) opss)
  in
  let cases =
    Array.to_list
      (Array.mapi
         (fun i tr ->
           List.iter (fun obs -> obs tr) t.observers;
           let seed, iteration = specs.(i) in
           { seed; iteration; ops = opss.(i); verdicts = verdicts_of t tr })
         traces)
  in
  let failures = List.concat_map (case_failures ~shrink t) cases in
  { spec_name = t.spec_name;
    horizon = t.spec_ticks;
    seeds;
    case_iterations = t.iters;
    gens = generators t;
    cases;
    failures }

let gate campaign = campaign.failures = []

(* ------------------------------------------------------------------ *)
(* Report                                                             *)
(* ------------------------------------------------------------------ *)

let monitor_names campaign =
  match campaign.cases with
  | [] -> []
  | c :: _ -> List.map fst c.verdicts

let pad s w = s ^ String.make (max 0 (w - String.length s)) ' '
let buf_addf buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

let to_text campaign =
  let buf = Buffer.create 1024 in
  buf_addf buf "proptest report: %s\n" campaign.spec_name;
  buf_addf buf "horizon: %d ticks, iterations/seed: %d, seeds: %s\n"
    campaign.horizon campaign.case_iterations
    (String.concat ", " (List.map string_of_int campaign.seeds));
  buf_addf buf "generators: %s\n\n"
    (if campaign.gens = [] then "(none)"
     else
       String.concat ", "
         (List.map
            (fun (n, w) -> Printf.sprintf "%s(w=%d)" n w)
            campaign.gens));
  let rows =
    List.map
      (fun mon ->
        let fails =
          List.length
            (List.filter
               (fun c ->
                 match List.assoc_opt mon c.verdicts with
                 | Some v -> Monitor.is_fail v
                 | None -> false)
               campaign.cases)
        in
        (mon, List.length campaign.cases - fails, fails))
      (monitor_names campaign)
  in
  let w =
    List.fold_left (fun acc (m, _, _) -> max acc (String.length m)) 7 rows
  in
  buf_addf buf "%s  pass  fail\n" (pad "monitor" w);
  buf_addf buf "%s  ----  ----\n" (String.make w '-');
  List.iter
    (fun (m, p, f) -> buf_addf buf "%s  %4d  %4d\n" (pad m w) p f)
    rows;
  (match campaign.failures with
   | [] -> buf_addf buf "\nno monitor violations.\n"
   | failures ->
     buf_addf buf "\n%d violation(s):\n" (List.length failures);
     List.iter
       (fun fl ->
         buf_addf buf "- seed %d, iteration %d, monitor %s: %s\n"
           fl.fail_seed fl.fail_iteration fl.fail_monitor
           (Monitor.verdict_to_string fl.verdict);
         let case =
           List.find_opt
             (fun c ->
               c.seed = fl.fail_seed && c.iteration = fl.fail_iteration)
             campaign.cases
         in
         (match case with
          | Some c ->
            buf_addf buf "  sequence (%d op(s)): %s\n" (List.length c.ops)
              (String.concat "; " (List.map Op.describe c.ops))
          | None -> ());
         match fl.shrunk with
         | None -> ()
         | Some o ->
           buf_addf buf "  shrunk: %d op(s), %d tick(s):\n"
             (List.length o.shrunk_ops) o.shrunk_ticks;
           List.iter
             (fun op -> buf_addf buf "    %s\n" (Op.describe op))
             o.shrunk_ops;
           buf_addf buf "  faults: %s\n"
             (if o.shrunk_faults = [] then "(none)"
              else
                String.concat "; "
                  (List.map Fault.describe o.shrunk_faults));
           buf_addf buf "  replay: %s\n" o.shrunk_reason)
       failures);
  Buffer.contents buf
