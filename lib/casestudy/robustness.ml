open Automode_core
open Automode_osek
open Automode_robust

(* ------------------------------------------------------------------ *)
(* Door lock under voltage-sensor dropout and crash-event storm        *)
(* ------------------------------------------------------------------ *)

let lock_ticks = 40
let crash_tick = 34

(* Extended Fig. 1 stimulus: voltage every second tick, lock requests at
   ticks 2 and 22, an unlock request at tick 12, the crash at tick 34. *)
let lock_stimulus tick =
  let voltage =
    if tick mod 2 = 0 then
      [ ("FZG_V",
         Value.Present (Value.Float (20. +. float_of_int (tick mod 5)))) ]
    else []
  in
  let status =
    if tick = 2 || tick = 22 then
      [ ("T4S", Value.Present (Dtype.enum_value Door_lock.lock_status "Locked")) ]
    else if tick = 12 then
      [ ("T4S",
         Value.Present (Dtype.enum_value Door_lock.lock_status "Unlocked")) ]
    else []
  in
  let crash =
    if tick = crash_tick then
      [ ("CRSH",
         Value.Present (Dtype.enum_value Door_lock.crash_status "Crash")) ]
    else []
  in
  voltage @ status @ crash

let crash_value = Dtype.enum_value Door_lock.crash_status "Crash"

(* Seeded fault recipe: voltage-sensor dropout, a crash-event storm on
   the event-clocked CRSH port, and supply noise. *)
let lock_faults seed =
  [ Fault.dropout ~flow:"FZG_V"
      (Fault.Random_ticks { probability = 0.4; seed });
    Fault.spike ~flow:"CRSH" ~value:crash_value
      (Fault.Random_ticks { probability = 0.03; seed = seed + 1000 });
    Fault.noise ~seed:(seed + 2000) ~flow:"FZG_V" ~amplitude:18.
      (Fault.Random_ticks { probability = 0.2; seed = seed + 3000 }) ]

(* The crash event clock must fire for the base crash and for every
   injected CRSH spike — and track the fault set while shrinking. *)
let lock_schedule name tick = String.equal name "crash" && tick = crash_tick
let lock_events = [ ("crash", "CRSH") ]

let is_lit ty lit v = Value.equal v (Dtype.enum_value ty lit)

let lock_monitors =
  [ Monitor.bounded_response ~name:"lock-answered" ~stimulus:"T4S"
      ~response:"T4C" ~within:4
      ~stim_pred:(is_lit Door_lock.lock_status "Locked")
      ~resp_pred:(is_lit Door_lock.lock_command "Lock")
      ();
    Monitor.bounded_response ~name:"crash-answered" ~stimulus:"CRSH"
      ~response:"T4C" ~within:4
      ~stim_pred:(is_lit Door_lock.crash_status "Crash")
      ~resp_pred:(is_lit Door_lock.lock_command "Unlock")
      ();
    Monitor.range ~name:"voltage-plausible" ~flow:"FZG_V" ~lo:5. ~hi:32. ]

let door_lock_scenario =
  Scenario.make ~schedule:lock_schedule ~events:lock_events ~name:"door-lock"
    ~component:Door_lock.component ~ticks:lock_ticks ~inputs:lock_stimulus
    ~faults:lock_faults ~monitors:lock_monitors ()

let door_lock_campaign ?shrink ~seeds () =
  Scenario.sweep ?shrink door_lock_scenario ~seeds

(* ------------------------------------------------------------------ *)
(* Engine pipeline under CAN loss and execution-time faults            *)
(* ------------------------------------------------------------------ *)

(* Body-electronics chatter sharing the powertrain bus: high-priority,
   high-rate frames that eat ~2/3 of the 500 kbit/s bandwidth, so the
   nominal bus still delivers but corruption-induced retransmissions
   push it over the edge. *)
let chatter =
  List.map
    (fun i ->
      Can_bus.frame
        ~name:(Printf.sprintf "chatter%d" i)
        ~can_id:i ~payload_bytes:8 ~period:1200
        ~offset:(i * 100) ())
    [ 1; 2; 3 ]

let engine_injection ?(loss_rate = 0.35) ?(overrun_rate = 0.05)
    ?(overrun_factor = 500.) ~seed () =
  Inject_net.nominal Engine_ccd.deployment
  |> Inject_net.with_background ~bus:"can_powertrain" chatter
  |> Inject_net.with_can_loss ~seed ~loss_rate
  |> Inject_net.with_exec
       (Scheduler.exec_model ~jitter_frac:0.2 ~overrun_rate ~overrun_factor
          ~seed ())

let engine_campaign ?(horizon = 200_000) ?loss_rate ?overrun_rate
    ?overrun_factor ~seeds () =
  Parallel.map
    (fun seed ->
      let inj =
        engine_injection ?loss_rate ?overrun_rate ?overrun_factor ~seed ()
      in
      (seed, Inject_net.verdicts (Inject_net.simulate inj ~horizon)))
    seeds

let pp_engine_campaign ppf results =
  List.iter
    (fun (seed, verdicts) ->
      Format.fprintf ppf "seed %d:@." seed;
      List.iter
        (fun (name, v) ->
          Format.fprintf ppf "  %-28s %s@." name (Monitor.verdict_to_string v))
        verdicts)
    results
