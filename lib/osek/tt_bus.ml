type channel = A | B

let channel_name = function A -> "A" | B -> "B"

type slot = {
  tt_frame : string;
  slot_index : int;
  tt_payload_bytes : int;
  tx_channels : channel list;
}

let slot ?(channels = [ A; B ]) ~name ~index ~payload_bytes () =
  if payload_bytes < 0 || payload_bytes > 254 then
    invalid_arg "Tt_bus.slot: FlexRay payload is 0..254 bytes";
  if index < 0 then invalid_arg "Tt_bus.slot: negative slot index";
  if channels = [] then invalid_arg "Tt_bus.slot: empty channel list";
  { tt_frame = name; slot_index = index; tt_payload_bytes = payload_bytes;
    tx_channels = List.sort_uniq Stdlib.compare channels }

type schedule = {
  slots_per_cycle : int;
  slot_us : int;
  bitrate : int;
  slots : slot list;
}

(* FlexRay static frame: 5-byte header, payload, 3-byte trailer CRC; the
   byte-encoding (TSS, FSS, one BSS pair per byte, FES) costs roughly
   25% on the wire. *)
let tx_time_us ~bitrate ~payload_bytes =
  let bits = (5 + payload_bytes + 3) * 8 * 5 / 4 in
  (bits * 1_000_000 + bitrate - 1) / bitrate

let schedule ?(bitrate = 10_000_000) ~slots_per_cycle ~slot_us slots =
  if slots_per_cycle <= 0 then
    invalid_arg "Tt_bus.schedule: positive cycle length required";
  if slot_us <= 0 then invalid_arg "Tt_bus.schedule: positive slot length";
  if bitrate <= 0 then invalid_arg "Tt_bus.schedule: positive bitrate";
  let names = List.map (fun s -> s.tt_frame) slots in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Tt_bus.schedule: duplicate frame names";
  List.iter
    (fun s ->
      if s.slot_index >= slots_per_cycle then
        invalid_arg
          (Printf.sprintf "Tt_bus.schedule: slot %s index %d outside cycle"
             s.tt_frame s.slot_index);
      let t = tx_time_us ~bitrate ~payload_bytes:s.tt_payload_bytes in
      if t > slot_us then
        invalid_arg
          (Printf.sprintf
             "Tt_bus.schedule: slot %s needs %dus on the wire, slot is %dus"
             s.tt_frame t slot_us))
    slots;
  (* per channel, a slot index is owned by at most one frame *)
  List.iter
    (fun ch ->
      let idxs =
        List.filter_map
          (fun s ->
            if List.mem ch s.tx_channels then Some s.slot_index else None)
          slots
      in
      if List.length (List.sort_uniq Int.compare idxs) <> List.length idxs
      then
        invalid_arg
          (Printf.sprintf
             "Tt_bus.schedule: duplicate slot index on channel %s"
             (channel_name ch)))
    [ A; B ];
  { slots_per_cycle; slot_us; bitrate; slots }

let cycle_us sched = sched.slots_per_cycle * sched.slot_us

let utilization sched ch =
  let used =
    List.length (List.filter (fun s -> List.mem ch s.tx_channels) sched.slots)
  in
  float_of_int used /. float_of_int sched.slots_per_cycle

type chan_faults = {
  ch_loss_rate : float;
  ch_dead : (int * int) list;
}

let chan_faults ?(loss_rate = 0.) ?(dead = []) () =
  if loss_rate < 0. || loss_rate > 1. then
    invalid_arg "Tt_bus.chan_faults: loss rate outside [0, 1]";
  List.iter
    (fun (f, u) ->
      if f < 0 || u < f then
        invalid_arg "Tt_bus.chan_faults: bad outage window")
    dead;
  { ch_loss_rate = loss_rate; ch_dead = dead }

let rec in_window at = function
  | [] -> false
  | (f, u) :: rest -> (at >= f && at < u) || in_window at rest

let channel_dead cf ~at = in_window at cf.ch_dead

(* Per-(channel, slot) loss outcomes memoized by cycle: the tables
   belong to the fault model, so every simulation run under one model —
   the dual and the single-channel leg of a campaign seed, say — draws
   each (seed, channel, slot, cycle) key once.  A channel's tables are
   an association list by slot index, published through an atomic like
   the tables themselves (see {!Draw.memo}). *)
type fault_model = {
  tt_seed : int;
  chan_a : chan_faults;
  chan_b : chan_faults;
  loss_a : (int * Draw.memo) list Atomic.t;
  loss_b : (int * Draw.memo) list Atomic.t;
}

let no_faults = { ch_loss_rate = 0.; ch_dead = [] }

let fault_model ?(seed = 0) ?(a = no_faults) ?(b = no_faults) () =
  { tt_seed = seed; chan_a = a; chan_b = b; loss_a = Atomic.make [];
    loss_b = Atomic.make [] }

let chan fm = function A -> fm.chan_a | B -> fm.chan_b

let loss_table fm ch ~slot_index =
  let tables = match ch with A -> fm.loss_a | B -> fm.loss_b in
  let known = Atomic.get tables in
  match List.assoc_opt slot_index known with
  | Some m -> m
  | None ->
    let m = Draw.memo () in
    Atomic.set tables ((slot_index, m) :: known);
    m

(* Deterministic per-transmission corruption: seeded by (fault seed,
   channel tag, slot index, cycle), a stream per channel so A and B fail
   independently — same seed, same corruptions, bit-for-bit.  [lossy]
   answers for one (channel, slot) over cycles: [None] when the channel
   never corrupts. *)
let lossy fm ch ~slot_index =
  let rate = (chan fm ch).ch_loss_rate in
  if rate <= 0. then None
  else if rate >= 1. then Some (fun _ -> true)
  else
    let table = loss_table fm ch ~slot_index in
    let tag = match ch with A -> 0xA | B -> 0xB in
    let draw cycle =
      Draw.float [| fm.tt_seed; tag; slot_index; cycle |] 1.0 < rate
    in
    Some (fun cycle -> Draw.memoized table cycle draw)

type slot_stats = {
  instances : int;
  delivered : int;
  undelivered : int;
  lost_a : int;
  lost_b : int;
  max_consec_undelivered : int;
}

type result = {
  horizon : int;
  cycles : int;
  per_slot : (string * slot_stats) list;
}

(* One transmission leg of a slot: its channel's outage windows and
   corruption outcomes. *)
type leg = { dead : (int * int) list; lost : (int -> bool) option }

let leg_ok l ~at ~cycle =
  (not (in_window at l.dead))
  && match l.lost with None -> true | Some lost -> not (lost cycle)

(* [schedule] guarantees unique frame names, so slot positions stand
   for frames: counters live in arrays indexed by position. *)
let simulate ?faults sched ~horizon =
  let cyc = cycle_us sched in
  if horizon < cyc then
    invalid_arg "Tt_bus.simulate: horizon holds no complete cycle";
  let cycles = horizon / cyc in
  let slots = Array.of_list sched.slots in
  let n = Array.length slots in
  let leg s ch =
    if not (List.mem ch s.tx_channels) then None
    else
      match faults with
      | None -> Some { dead = []; lost = None }
      | Some fm ->
        Some
          { dead = (chan fm ch).ch_dead;
            lost = lossy fm ch ~slot_index:s.slot_index }
  in
  let legs_a = Array.map (fun s -> leg s A) slots in
  let legs_b = Array.map (fun s -> leg s B) slots in
  let delivered = Array.make n 0 in
  let lost_a = Array.make n 0 in
  let lost_b = Array.make n 0 in
  let streak = Array.make n 0 in
  let max_gap = Array.make n 0 in
  let keys =
    lazy
      (Array.map
         (fun s ->
           ( "tt." ^ s.tt_frame ^ ".delivered",
             "tt." ^ s.tt_frame ^ ".undelivered" ))
         slots)
  in
  for cycle = 0 to cycles - 1 do
    for i = 0 to n - 1 do
      let at = (cycle * cyc) + (slots.(i).slot_index * sched.slot_us) in
      let arrived = ref false in
      (match legs_a.(i) with
       | None -> ()
       | Some l ->
         if leg_ok l ~at ~cycle then arrived := true
         else lost_a.(i) <- lost_a.(i) + 1);
      (match legs_b.(i) with
       | None -> ()
       | Some l ->
         if leg_ok l ~at ~cycle then arrived := true
         else lost_b.(i) <- lost_b.(i) + 1);
      let arrived = !arrived in
      if Automode_obs.Probe.active () then begin
        let d, u = (Lazy.force keys).(i) in
        Automode_obs.Probe.count (if arrived then d else u)
      end;
      if arrived then begin
        delivered.(i) <- delivered.(i) + 1;
        streak.(i) <- 0
      end
      else begin
        streak.(i) <- streak.(i) + 1;
        max_gap.(i) <- Stdlib.max max_gap.(i) streak.(i)
      end
    done
  done;
  if Automode_obs.Probe.active () then
    Array.iteri
      (fun i s ->
        Automode_obs.Probe.gauge
          ("tt." ^ s.tt_frame ^ ".max_consec_undelivered")
          max_gap.(i))
      slots;
  { horizon;
    cycles;
    per_slot =
      Array.to_list
        (Array.mapi
           (fun i s ->
             ( s.tt_frame,
               { instances = cycles; delivered = delivered.(i);
                 undelivered = cycles - delivered.(i); lost_a = lost_a.(i);
                 lost_b = lost_b.(i); max_consec_undelivered = max_gap.(i) }
             ))
           slots) }

let pp_result ppf r =
  Format.fprintf ppf "horizon=%dus cycles=%d@\n" r.horizon r.cycles;
  List.iter
    (fun (name, s) ->
      Format.fprintf ppf
        "  %-16s inst=%d ok=%d lost=%d (A:%d B:%d) maxGap=%d@\n" name
        s.instances s.delivered s.undelivered s.lost_a s.lost_b
        s.max_consec_undelivered)
    r.per_slot
