open Automode_core

let status_type =
  Dtype.enum "HealthStatus" [ "Valid"; "Suspect"; "Timeout"; "Invalid" ]

let status_value = Dtype.enum_value status_type

type policy =
  | Hold_last
  | Substitute of Value.t
  | Drop

type config = {
  suspect_after : int;
  timeout_after : int;
  invalid_after : int;
  recover_after : int;
  plausible : (float * float) option;
  policy : policy;
  startup : Value.t;
}

let config ?(suspect_after = 2) ?(timeout_after = 8) ?(invalid_after = 2)
    ?(recover_after = 1) ?plausible ?(policy = Hold_last) ~startup () =
  if suspect_after < 1 then
    invalid_arg "Health.config: suspect_after must be positive";
  if timeout_after <= suspect_after then
    invalid_arg "Health.config: timeout_after must exceed suspect_after";
  if invalid_after < 1 then
    invalid_arg "Health.config: invalid_after must be positive";
  if recover_after < 1 then
    invalid_arg "Health.config: recover_after must be positive";
  (match plausible with
   | Some (lo, hi) when lo > hi ->
     invalid_arg "Health.config: empty plausibility range"
   | Some _ | None -> ());
  { suspect_after; timeout_after; invalid_after; recover_after; plausible;
    policy; startup }

(* The qualification state machine, as a plain STD so it exists at FDA
   level and runs unchanged on the interpreted oracle and the
   indexed/batched engine.

   Debounce counters live in extended state variables: [miss] counts
   consecutive absent ticks, [bad] consecutive implausible samples,
   [good] consecutive good samples during requalification; [last] holds
   the last accepted sample (the substitute of the Hold_last policy).

   STD semantics make transparency exact: outputs are emitted only on
   fired transitions, so the Valid-state self-loop for an absent tick
   emits the health flag but *not* [out] — under no faults the qualified
   stream reproduces the raw stream's presence pattern byte-for-byte. *)
let qualifier_std cfg =
  let open Expr in
  let present = Is_present "raw" in
  let absent = not_ (Is_present "raw") in
  let in_range =
    match cfg.plausible with
    | None -> bool true
    | Some (lo, hi) -> var "raw" >= float lo && var "raw" <= float hi
  in
  let good = match cfg.plausible with
    | None -> present
    | Some _ -> present && in_range
  in
  let bad = match cfg.plausible with
    | None -> None
    | Some _ -> Some (present && not_ in_range)
  in
  let subst =
    match cfg.policy with
    | Hold_last -> Some (var "last")
    | Substitute v -> Some (Const v)
    | Drop -> None
  in
  let outs ?out ~ok status =
    (match out with Some e -> [ ("out", e) ] | None -> [])
    @ [ ("ok", bool ok); ("status", Const (status_value status)) ]
  in
  let sub_out = match subst with Some e -> [ ("out", e) ] | None -> [] in
  let t ?(up = []) ~src ~dst ~guard ~prio outs =
    { Model.st_src = src; st_dst = dst; st_guard = guard; st_outputs = outs;
      st_updates = up; st_priority = prio }
  in
  let accept = [ ("last", var "raw"); ("miss", int 0); ("bad", int 0) ] in
  let bad_transitions ?(prio_base = 1) src ~ok_status ~stay_ok =
    match bad with
    | None -> []
    | Some bad_guard ->
      [ t ~src ~dst:"Invalid"
          ~guard:(bad_guard && var "bad" + int 1 >= int cfg.invalid_after)
          ~prio:prio_base
          ~up:[ ("bad", var "bad" + int 1); ("good", int 0); ("miss", int 0) ]
          (sub_out @ outs ~ok:false "Invalid");
        t ~src ~dst:src ~guard:bad_guard ~prio:(succ prio_base)
          ~up:[ ("bad", var "bad" + int 1); ("good", int 0); ("miss", int 0) ]
          (sub_out @ outs ~ok:stay_ok ok_status) ]
  in
  let requalify src =
    (* from the failed states, [recover_after] consecutive good samples
       requalify the flow; meanwhile the policy substitute (refreshed by
       the incoming good samples) keeps feeding downstream *)
    [ t ~src ~dst:"Valid"
        ~guard:(good && var "good" + int 1 >= int cfg.recover_after)
        ~prio:0
        ~up:(accept @ [ ("good", int 0) ])
        (outs ~out:(var "raw") ~ok:true "Valid");
      t ~src ~dst:src ~guard:good ~prio:1
        ~up:[ ("good", var "good" + int 1); ("last", var "raw");
              ("miss", int 0); ("bad", int 0) ]
        (sub_out @ outs ~ok:false src) ]
    @ bad_transitions ~prio_base:2 src ~ok_status:src ~stay_ok:false
    @ [ t ~src ~dst:src ~guard:absent ~prio:4
          ~up:[ ("miss", var "miss" + int 1); ("good", int 0) ]
          (sub_out @ outs ~ok:false src) ]
  in
  { Model.std_name = "Qualifier";
    std_states = [ "Valid"; "Suspect"; "Timeout"; "Invalid" ];
    std_initial = "Valid";
    std_vars =
      [ ("miss", Value.Int 0); ("bad", Value.Int 0); ("good", Value.Int 0);
        ("last", cfg.startup) ];
    std_transitions =
      (* Valid: pass good samples through untouched; tolerate up to
         [suspect_after - 1] absent ticks silently (multi-rate flows are
         nominally absent between samples) *)
      [ t ~src:"Valid" ~dst:"Valid" ~guard:good ~prio:0 ~up:accept
          (outs ~out:(var "raw") ~ok:true "Valid") ]
      @ bad_transitions "Valid" ~ok_status:"Valid" ~stay_ok:true
      @ [ t ~src:"Valid" ~dst:"Suspect"
            ~guard:(absent && var "miss" + int 1 >= int cfg.suspect_after)
            ~prio:3
            ~up:[ ("miss", var "miss" + int 1) ]
            (sub_out @ outs ~ok:true "Suspect");
          t ~src:"Valid" ~dst:"Valid" ~guard:absent ~prio:4
            ~up:[ ("miss", var "miss" + int 1) ]
            (outs ~ok:true "Valid");
          (* Suspect: substitute while the gap lasts; a good sample
             requalifies immediately, a too-long gap times out *)
          t ~src:"Suspect" ~dst:"Valid" ~guard:good ~prio:0 ~up:accept
            (outs ~out:(var "raw") ~ok:true "Valid") ]
      @ bad_transitions "Suspect" ~ok_status:"Suspect" ~stay_ok:true
      @ [ t ~src:"Suspect" ~dst:"Timeout"
            ~guard:(absent && var "miss" + int 1 >= int cfg.timeout_after)
            ~prio:3
            ~up:[ ("miss", var "miss" + int 1); ("good", int 0) ]
            (sub_out @ outs ~ok:false "Timeout");
          t ~src:"Suspect" ~dst:"Suspect" ~guard:absent ~prio:4
            ~up:[ ("miss", var "miss" + int 1) ]
            (sub_out @ outs ~ok:true "Suspect") ]
      @ requalify "Timeout"
      @ requalify "Invalid" }

let qualifier ?name ?ty ?(clock = Clock.Base) cfg =
  let name = match name with Some n -> n | None -> "Qualifier" in
  Model.component name
    ~ports:
      [ Model.in_port ?ty ~clock "raw";
        Model.out_port ?ty "out";
        Model.out_port ~ty:Dtype.Tbool "ok";
        Model.out_port ~ty:status_type "status" ]
    ~behavior:(Model.B_std (qualifier_std cfg))

(* ------------------------------------------------------------------ *)
(* Network transform: wrap a component with per-flow qualifiers        *)
(* ------------------------------------------------------------------ *)

let ok_flow flow = flow ^ "_ok"
let status_flow flow = flow ^ "_status"
let qualified_flow flow = flow ^ "_q"

let protect ?name ?(expose_qualified = false) ~flows comp =
  if flows = [] then invalid_arg "Health.protect: no flows to protect";
  let find_in_port f =
    match Model.find_port comp f with
    | Some p when p.Model.port_dir = Model.In -> p
    | Some _ ->
      invalid_arg (Printf.sprintf "Health.protect: %s is an output" f)
    | None ->
      invalid_arg
        (Printf.sprintf "Health.protect: no port %s on %s" f
           comp.Model.comp_name)
  in
  let wrapper_name =
    match name with Some n -> n | None -> comp.Model.comp_name ^ "Guarded"
  in
  let qual_name f = "Q_" ^ f in
  let qualifiers =
    List.map
      (fun (f, cfg) ->
        let p = find_in_port f in
        qualifier ~name:(qual_name f) ?ty:p.Model.port_type
          ~clock:p.Model.port_clock cfg)
      flows
  in
  let protected_names = List.map fst flows in
  let is_protected f = List.mem f protected_names in
  let chan = Model.channel in
  let qual_channels =
    List.concat_map
      (fun (f, _) ->
        let q = qual_name f in
        [ chan ~name:("g_in_" ^ f) (Model.boundary f) (Model.at q "raw");
          chan ~name:("g_sub_" ^ f) (Model.at q "out")
            (Model.at comp.Model.comp_name f);
          chan ~name:("g_ok_" ^ f) (Model.at q "ok")
            (Model.boundary (ok_flow f));
          chan ~name:("g_st_" ^ f) (Model.at q "status")
            (Model.boundary (status_flow f)) ]
        @
        if expose_qualified then
          [ chan ~name:("g_q_" ^ f) (Model.at q "out")
              (Model.boundary (qualified_flow f)) ]
        else [])
      flows
  in
  let forward_channels =
    List.filter_map
      (fun (p : Model.port) ->
        if p.Model.port_dir = Model.In && not (is_protected p.Model.port_name)
        then
          Some
            (chan ~name:("g_fw_" ^ p.Model.port_name)
               (Model.boundary p.Model.port_name)
               (Model.at comp.Model.comp_name p.Model.port_name))
        else None)
      comp.Model.comp_ports
  in
  let out_channels =
    List.map
      (fun (p : Model.port) ->
        chan ~name:("g_out_" ^ p.Model.port_name)
          (Model.at comp.Model.comp_name p.Model.port_name)
          (Model.boundary p.Model.port_name))
      (Model.output_ports comp)
  in
  let health_ports =
    List.concat_map
      (fun (f, _) ->
        let p = find_in_port f in
        [ Model.out_port ~ty:Dtype.Tbool (ok_flow f);
          Model.out_port ~ty:status_type (status_flow f) ]
        @
        if expose_qualified then
          [ Model.out_port ?ty:p.Model.port_type (qualified_flow f) ]
        else [])
      flows
  in
  Model.component wrapper_name
    ~ports:(comp.Model.comp_ports @ health_ports)
    ~behavior:
      (Model.B_dfd
         { Model.net_name = wrapper_name ^ "Net";
           net_components = qualifiers @ [ comp ];
           net_channels = qual_channels @ forward_channels @ out_channels })

(* ------------------------------------------------------------------ *)
(* Observability                                                      *)
(* ------------------------------------------------------------------ *)

let chop_suffix name suffix =
  let nl = String.length name and sl = String.length suffix in
  if nl > sl && String.equal (String.sub name (nl - sl) sl) suffix then
    Some (String.sub name 0 (nl - sl))
  else None

let observe trace =
  if Automode_obs.Probe.active () then
    List.iter
      (fun flow ->
        match chop_suffix flow "_status" with
        | None -> ()
        | Some base ->
          let previous = ref None in
          List.iter
            (fun msg ->
              match msg with
              | Value.Absent -> ()
              | Value.Present v ->
                let status = Value.to_string v in
                Automode_obs.Probe.count
                  ("health." ^ base ^ "." ^ status);
                (match !previous with
                 | Some prev when not (String.equal prev status) ->
                   Automode_obs.Probe.count
                     ("health." ^ base ^ ".transitions")
                 | Some _ | None -> ());
                previous := Some status)
            (Trace.column trace flow))
      (Trace.flows trace)
