open Automode_core
open Automode_guard
open Automode_proptest
open Automode_litmus

let horizon = Robustness.lock_ticks

let lit name = Dtype.enum_value Door_lock.lock_status name

(* Unlike Propcase there are no generators: litmus scenarios come from
   the enumerated alphabet below, not from (seed, iteration) draws.
   Both twins carry the functional monitors (requests answered, crash
   handled) on top of the derived range monitors, because several
   distinguishing mechanisms (voltage silence at a request tick) are
   invisible to range checks. *)
let spec ~name ~component ~ranges ~observers =
  Builder.spec ~name ~component ~ticks:horizon
    ~inputs:Robustness.lock_stimulus ()
  |> Builder.with_schedule Robustness.lock_schedule
  |> Builder.with_event ~event:"crash" ~flow:"CRSH"
  |> Builder.with_derived_monitors ~ranges
  |> Builder.with_monitors Guarded.functional_monitors
  |> Builder.with_observers observers

let unguarded =
  spec ~name:"door-lock-unguarded-litmus" ~component:Door_lock.component
    ~ranges:[ ("FZG_V", 5., 32.) ] ~observers:[]

let guarded =
  spec ~name:"door-lock-guarded-litmus" ~component:Guarded.component
    ~ranges:[ (Health.qualified_flow "FZG_V", 5., 32.) ]
    ~observers:[ Health.observe ]

(* The stated bounds of the guarded deployment (DESIGN/EXPERIMENTS):
   voltage gaps longer than the health timeout must be flagged within
   that timeout, the health flag must recover within the hand-written
   campaign's 6-tick bound once the stimulus is clean again, and the
   degradation mode port must never be left undefined. *)
let checks =
  [ Check.guard_regression;
    Check.detectable_gap ~flow:"FZG_V" ~ok_flow:(Health.ok_flow "FZG_V")
      ~gap:8;
    Check.recovers ~flow:"FZG_V" ~ok_flow:(Health.ok_flow "FZG_V") ~within:6;
    Check.well_defined ~flows:[ "MODE"; Health.ok_flow "FZG_V" ] ]

let twin ?(engine = Builder.Indexed) () =
  { Eval.twin_name = "door-lock-pair";
    unguarded = Builder.with_engine engine unguarded;
    guarded = Builder.with_engine engine guarded;
    checks }

(* T4S=Locked commands that succeed make the base stimulus's later lock
   request a no-op (the STD has no Locked->Locked self-answer), failing
   the request monitor on BOTH twins — kept as one deliberate both-fail
   atom at t14; the t6 Unlocked command is absorbed silently.  Spike
   values are implausible (outside 5..32 V) so the qualifier rejects
   them; silences at t0 cross the startup request, at t18 a long gap. *)
let alphabet =
  Alphabet.union
    [ Alphabet.spikes ~flow:"FZG_V"
        ~values:[ Value.Float 2.; Value.Float 40. ]
        ~at:[ 1; 21 ] ~hold:3;
      Alphabet.silences ~flow:"FZG_V" ~at:[ 0; 18 ] ~holds:[ 6; 10 ];
      Alphabet.commands ~flow:"T4S" ~values:[ lit "Locked" ] ~at:[ 14 ];
      Alphabet.commands ~flow:"T4S" ~values:[ lit "Unlocked" ] ~at:[ 6 ];
      Alphabet.crashes ~flows:[ "FZG_V" ] ~at:[ 8; 24 ];
      Alphabet.resets ~flows:[ "FZG_V" ] ~at:[ 8; 20 ] ~down:6;
      Alphabet.inject ~name:"noise:FZG_V~18@t20..27"
        (Automode_robust.Fault.noise ~seed:7 ~flow:"FZG_V" ~amplitude:18.
           (Automode_robust.Fault.Window { from_tick = 20; until_tick = 27 }))
    ]

let synthesize ?cache ?config ?prefix_share ?engine () =
  Synth.run ?cache ?config ?prefix_share
    ~twin:(twin ?engine ()) ~alphabet ()

let replay ?model ?engine suite =
  Suite.replay ?model ~twin:(twin ?engine ()) ~alphabet suite
