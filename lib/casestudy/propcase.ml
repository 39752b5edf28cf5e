open Automode_core
open Automode_guard
open Automode_proptest

let horizon = Robustness.lock_ticks

let lit name = Dtype.enum_value Door_lock.lock_status name

(* The spike values are deliberately implausible (outside the 5..32 V
   plausibility band): the unguarded range monitor fails on them
   instantly, while the guard layer's qualifier rejects them and
   substitutes last-known-good.  Plausible-but-low values (e.g. 6 V)
   would pass the qualifier and drive v_ok false on both sides — that
   regime belongs to the hand-written {!Guarded} campaign, not here. *)
let generators =
  [ Opgen.command ~weight:3 ~flow:"T4S"
      ~values:[ lit "Locked"; lit "Unlocked" ]
      ();
    Opgen.spike ~weight:3 ~max_hold:3 ~flow:"FZG_V"
      ~values:[ Value.Float 2.; Value.Float 40. ]
      ();
    Opgen.silence ~weight:2 ~max_hold:6 ~flow:"FZG_V" ();
    Opgen.reset ~weight:1 ~max_down:4 ~flows:[ "FZG_V" ] ();
    Opgen.crash ~weight:1 ~flows:[ "FZG_V" ] () ]

let common ~name ~component ~ranges ~observers =
  Builder.spec ~name ~component ~ticks:horizon
    ~inputs:Robustness.lock_stimulus ()
  |> Builder.with_schedule Robustness.lock_schedule
  |> Builder.with_event ~event:"crash" ~flow:"CRSH"
  |> Builder.with_ops ~min_ops:2 ~max_ops:8 generators
  |> Builder.with_derived_monitors ~ranges
  |> Builder.with_observers observers
  |> Builder.with_iterations 2

let unguarded =
  common ~name:"door-lock-unguarded-prop" ~component:Door_lock.component
    ~ranges:[ ("FZG_V", 5., 32.) ] ~observers:[]

let guarded =
  common ~name:"door-lock-guarded-prop" ~component:Guarded.component
    ~ranges:[ (Health.qualified_flow "FZG_V", 5., 32.) ]
    ~observers:[ Health.observe ]

type comparison = {
  unguarded : Builder.campaign;
  guarded : Builder.campaign;
}

let run ?shrink ?domains ?prefix_share ?(iterations = 2) ~seeds () =
  let sweep spec =
    Builder.run ?shrink ?domains ?prefix_share
      (Builder.with_iterations iterations spec)
      ~seeds
  in
  { unguarded = sweep unguarded; guarded = sweep guarded }

let contrast_holds c =
  (not (Builder.gate c.unguarded)) && Builder.gate c.guarded

let to_text c =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Builder.to_text c.unguarded);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Builder.to_text c.guarded);
  Buffer.add_string buf
    (Printf.sprintf "\ncontrast: unguarded %s, guarded %s -> %s\n"
       (if Builder.gate c.unguarded then "PASS" else "FAIL")
       (if Builder.gate c.guarded then "PASS" else "FAIL")
       (if contrast_holds c then "expected (guard absorbs the sequences)"
        else "UNEXPECTED"))
  ;
  Buffer.contents buf
