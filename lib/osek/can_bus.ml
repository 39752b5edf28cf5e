(* Observability hooks: no-ops (one ref load) unless a sink is
   installed, so bus results and timings are unchanged.  Per-frame
   handles and key strings are memoized — transmissions are per-frame
   per-period events and must not rebuild keys each time (E16). *)
module Probe = Automode_obs.Probe

let frame_probes : (string, Probe.counter * Probe.counter * string) Hashtbl.t =
  Hashtbl.create 16

let probes_of frame_name =
  match Hashtbl.find frame_probes frame_name with
  | p -> p
  | exception Not_found ->
    let p =
      ( Probe.counter ("can." ^ frame_name ^ ".sent"),
        Probe.counter ("can." ^ frame_name ^ ".retries"),
        "can." ^ frame_name ^ ".latency_us" )
    in
    Hashtbl.add frame_probes frame_name p;
    p

type frame = {
  frame_name : string;
  can_id : int;
  payload_bytes : int;
  period : int;
  offset : int;
}

let frame ?(offset = 0) ~name ~can_id ~payload_bytes ~period () =
  if payload_bytes < 0 || payload_bytes > 8 then
    invalid_arg "Can_bus.frame: classic CAN payload is 0..8 bytes";
  if period <= 0 then invalid_arg "Can_bus.frame: period must be positive";
  if offset < 0 then invalid_arg "Can_bus.frame: negative offset";
  { frame_name = name; can_id; payload_bytes; period; offset }

type config = { bitrate : int }

(* Worst-case classic CAN frame length in bits for an n-byte payload:
   47 + 8n frame bits plus (34 + 8n - 1) / 4 stuff bits. *)
let frame_bits f =
  let n = f.payload_bytes in
  47 + (8 * n) + ((34 + (8 * n) - 1) / 4)

let tx_time config f =
  let bits = frame_bits f in
  (bits * 1_000_000 + config.bitrate - 1) / config.bitrate

(* Worst-case error frame + interframe space: 6 flag bits, up to 6
   echoed flag bits, 8 delimiter bits and 3 intermission bits. *)
let error_frame_bits = 23

let error_overhead config =
  (error_frame_bits * 1_000_000 + config.bitrate - 1) / config.bitrate

type bus_off = {
  error_inc : int;
  success_dec : int;
  off_at : int;
  recovery_us : int;
}

let bus_off ?(error_inc = 8) ?(success_dec = 1) ?(off_at = 256)
    ~recovery_us () =
  if error_inc < 1 then
    invalid_arg "Can_bus.bus_off: error increment must be positive";
  if success_dec < 0 then
    invalid_arg "Can_bus.bus_off: negative success decrement";
  if off_at < 1 then
    invalid_arg "Can_bus.bus_off: bus-off threshold must be positive";
  if recovery_us < 1 then
    invalid_arg "Can_bus.bus_off: recovery time must be positive";
  { error_inc; success_dec; off_at; recovery_us }

type fault_model = {
  loss_rate : float;
  fault_seed : int;
  max_retransmits : int;
  burst_rate : float;
  burst_len : int;
  retry_backoff_us : int;
  bus_off_model : bus_off option;
}

let fault_model ?(seed = 0) ?(max_retransmits = 8) ?(burst_rate = 0.)
    ?(burst_len = 1) ?(retry_backoff_us = 0) ?bus_off ~loss_rate () =
  if loss_rate < 0. || loss_rate > 1. then
    invalid_arg "Can_bus.fault_model: loss rate outside [0, 1]";
  if max_retransmits < 0 then
    invalid_arg "Can_bus.fault_model: negative retransmit bound";
  if burst_rate < 0. || burst_rate > 1. then
    invalid_arg "Can_bus.fault_model: burst rate outside [0, 1]";
  if burst_len < 1 then
    invalid_arg "Can_bus.fault_model: burst length must be positive";
  if retry_backoff_us < 0 then
    invalid_arg "Can_bus.fault_model: negative retry backoff";
  { loss_rate; fault_seed = seed; max_retransmits; burst_rate; burst_len;
    retry_backoff_us; bus_off_model = bus_off }

(* Exponential backoff before attempt [attempts + 1]: the first retry
   waits one backoff quantum, each further retry doubles it (shift
   capped so the arithmetic never overflows). *)
let backoff_delay fm ~attempts =
  if fm.retry_backoff_us = 0 then 0
  else fm.retry_backoff_us * (1 lsl Stdlib.min attempts 16)

type frame_stats = {
  queued : int;
  sent : int;
  max_latency : int;
  total_latency : int;
  dropped : int;
  errors : int;
  max_consec_dropped : int;
}

type result = {
  horizon : int;
  per_frame : (string * frame_stats) list;
  bus_busy : int;
  load : float;
  bus_offs : int;
}

let empty_stats =
  { queued = 0; sent = 0; max_latency = 0; total_latency = 0; dropped = 0;
    errors = 0; max_consec_dropped = 0 }

type pending = {
  p_frame : frame;
  queued_at : int;
  attempts : int;
  doomed : bool;  (** instance sits inside an injected loss burst *)
  eligible_at : int;  (** earliest retransmission instant (backoff) *)
}

let validate frames =
  let names = List.map (fun f -> f.frame_name) frames in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Can_bus.simulate: duplicate frame names";
  let ids = List.map (fun f -> f.can_id) frames in
  if List.length (List.sort_uniq Int.compare ids) <> List.length ids then
    invalid_arg "Can_bus.simulate: duplicate CAN identifiers"

(* Deterministic per-attempt corruption decision: seeded by the fault
   seed, the arbitration id, the queuing instant and the attempt index,
   so identical campaigns replay bit-identically. *)
let corrupted fm p =
  p.doomed
  || fm.loss_rate > 0.
     && (fm.loss_rate >= 1.
        ||
        Draw.float
          [| fm.fault_seed; p.p_frame.can_id; p.queued_at; p.attempts |]
          1.0
        < fm.loss_rate)

(* Deterministic burst starts: a fresh instance opens a burst of
   [burst_len] doomed instances with probability [burst_rate], seeded by
   (fault seed, arbitration id, queuing instant) on a stream distinct
   from the per-attempt corruption draw. *)
let burst_starts fm ~can_id ~now =
  fm.burst_rate > 0.
  && (fm.burst_rate >= 1.
     ||
     Draw.float [| fm.fault_seed; 0x6275; can_id; now |] 1.0 < fm.burst_rate)

let simulate ?faults ?(background = []) config ~horizon frames =
  let all_frames = frames @ background in
  validate all_frames;
  if horizon <= 0 then invalid_arg "Can_bus.simulate: positive horizon required";
  let stats = Hashtbl.create 16 in
  List.iter
    (fun f -> Hashtbl.replace stats f.frame_name empty_stats)
    all_frames;
  let update name g =
    Hashtbl.replace stats name (g (Hashtbl.find stats name))
  in
  (* consecutive-instance loss runs, the gap an E2E alive counter must
     cover: instances of one frame either complete (streak resets) or are
     dropped (streak grows) in queuing order *)
  let streaks = Hashtbl.create 16 in
  let bump_streak name =
    let run =
      (match Hashtbl.find_opt streaks name with Some r -> r | None -> 0) + 1
    in
    Hashtbl.replace streaks name run;
    update name (fun s ->
        { s with max_consec_dropped = Stdlib.max s.max_consec_dropped run })
  in
  let note_dropped name =
    bump_streak name;
    if Probe.active () then Probe.count ("can." ^ name ^ ".dropped");
    update name (fun s -> { s with dropped = s.dropped + 1 })
  in
  let note_sent name = Hashtbl.replace streaks name 0 in
  let burst_left = Hashtbl.create 16 in
  let dooms f now =
    match faults with
    | Some fm when fm.burst_rate > 0. ->
      let left =
        match Hashtbl.find_opt burst_left f.frame_name with
        | Some n -> n
        | None -> 0
      in
      if left > 0 then begin
        Hashtbl.replace burst_left f.frame_name (left - 1);
        true
      end
      else if burst_starts fm ~can_id:f.can_id ~now then begin
        Hashtbl.replace burst_left f.frame_name (fm.burst_len - 1);
        true
      end
      else false
    | Some _ | None -> false
  in
  let next_queue = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace next_queue f.frame_name 0) all_frames;
  let queue_time f k = f.offset + (k * f.period) in
  let next_queue_instant () =
    List.fold_left
      (fun acc f ->
        let k = Hashtbl.find next_queue f.frame_name in
        let q = queue_time f k in
        if q < horizon then Stdlib.min acc q else acc)
      max_int all_frames
  in
  let enqueue now pending =
    List.fold_left
      (fun pending f ->
        let k = Hashtbl.find next_queue f.frame_name in
        if queue_time f k = now then begin
          Hashtbl.replace next_queue f.frame_name (k + 1);
          update f.frame_name (fun s -> { s with queued = s.queued + 1 });
          (* supersede a still-pending older instance of the same frame *)
          let superseded, kept =
            List.partition
              (fun p -> String.equal p.p_frame.frame_name f.frame_name)
              pending
          in
          List.iter (fun _ -> note_dropped f.frame_name) superseded;
          { p_frame = f; queued_at = now; attempts = 0; doomed = dooms f now;
            eligible_at = now }
          :: kept
        end
        else pending)
      pending all_frames
  in
  (* transmit-error counter and bus-off window, TEC-style: every error
     frame bumps the counter, every completed transmission decays it;
     crossing the threshold silences the bus for the recovery time *)
  let tec = ref 0 in
  let off_until = ref 0 in
  let bus_offs = ref 0 in
  let on_error finish =
    match faults with
    | Some { bus_off_model = Some bo; _ } ->
      tec := !tec + bo.error_inc;
      if !tec >= bo.off_at then begin
        tec := 0;
        incr bus_offs;
        if Probe.active () then begin
          Probe.count "can.bus_off";
          Probe.instant ~tick:finish ~cat:"can" "bus_off"
        end;
        off_until := finish + bo.recovery_us
      end
    | Some _ | None -> ()
  in
  let on_success () =
    match faults with
    | Some { bus_off_model = Some bo; _ } ->
      tec := Stdlib.max 0 (!tec - bo.success_dec)
    | Some _ | None -> ()
  in
  let rec loop now pending busy =
    if now >= horizon then busy
    else
      let pending = enqueue now pending in
      if !off_until > now then begin
        (* bus-off: nothing transmits until recovery; keep stepping
           through queue instants so superseding keeps being counted *)
        let nq = next_queue_instant () in
        let next = if nq = max_int then !off_until else Stdlib.min !off_until nq in
        if next >= horizon then busy else loop next pending busy
      end
      else
      let eligible = List.filter (fun p -> p.eligible_at <= now) pending in
      match eligible with
      | [] ->
        let nq = next_queue_instant () in
        let ne =
          List.fold_left
            (fun acc p -> Stdlib.min acc p.eligible_at)
            max_int pending
        in
        let next = Stdlib.min nq ne in
        if next = max_int || next >= horizon then busy
        else loop next pending busy
      | _ :: _ ->
        let winner =
          List.fold_left
            (fun best p ->
              if p.p_frame.can_id < best.p_frame.can_id then p else best)
            (List.hd eligible) eligible
        in
        let hit =
          match faults with Some fm -> corrupted fm winner | None -> false
        in
        let t =
          tx_time config winner.p_frame
          + if hit then error_overhead config else 0
        in
        let finish = now + t in
        (* non-preemptive transmission: new queuings during [now, finish)
           are collected at the completion instant *)
        let rec catch_up pending instant =
          let nq = next_queue_instant () in
          if nq < finish && nq >= instant then
            catch_up (enqueue nq pending) (nq + 1)
          else pending
        in
        let pending = List.filter (fun p -> p != winner) pending in
        let pending = catch_up pending (now + 1) in
        if hit then begin
          (* error frame: the slot is wasted; the sender retransmits the
             same instance unless the bound is exhausted or a fresh
             instance superseded it during the corrupted slot *)
          update winner.p_frame.frame_name (fun s ->
              { s with errors = s.errors + 1 });
          on_error finish;
          let bound =
            match faults with Some fm -> fm.max_retransmits | None -> 0
          in
          let superseded =
            List.exists
              (fun p ->
                String.equal p.p_frame.frame_name winner.p_frame.frame_name)
              pending
          in
          if superseded then begin
            (* abandoned in favor of the fresh instance: not a [dropped]
               stat (never formally given up by the queue) but still a
               lost instance for the consecutive-loss run *)
            bump_streak winner.p_frame.frame_name;
            loop finish pending (busy + t)
          end
          else if winner.attempts >= bound then begin
            note_dropped winner.p_frame.frame_name;
            loop finish pending (busy + t)
          end
          else begin
            if Probe.active () then begin
              let _, retries, _ = probes_of winner.p_frame.frame_name in
              Probe.hit retries
            end;
            let delay =
              match faults with
              | Some fm -> backoff_delay fm ~attempts:winner.attempts
              | None -> 0
            in
            loop finish
              ({ winner with
                 attempts = winner.attempts + 1;
                 eligible_at = finish + delay }
              :: pending)
              (busy + t)
          end
        end
        else begin
          let latency = finish - winner.queued_at in
          on_success ();
          note_sent winner.p_frame.frame_name;
          if Probe.active () then begin
            let sent, _, latency_key = probes_of winner.p_frame.frame_name in
            Probe.hit sent;
            Probe.sample latency_key latency
          end;
          update winner.p_frame.frame_name (fun s ->
              { s with
                sent = s.sent + 1;
                max_latency = Stdlib.max s.max_latency latency;
                total_latency = s.total_latency + latency });
          loop finish pending (busy + t)
        end
  in
  let busy = loop 0 [] 0 in
  { horizon;
    per_frame =
      List.map (fun f -> (f.frame_name, Hashtbl.find stats f.frame_name)) frames;
    bus_busy = busy;
    load = float_of_int busy /. float_of_int horizon;
    bus_offs = !bus_offs }

let response_time_analysis config frames =
  List.map
    (fun f ->
      let c = tx_time config f in
      let blocking =
        List.fold_left
          (fun acc g ->
            if g.can_id > f.can_id then Stdlib.max acc (tx_time config g)
            else acc)
          0 frames
      in
      let hp = List.filter (fun g -> g.can_id < f.can_id) frames in
      let demand w =
        blocking
        + List.fold_left
            (fun acc g -> acc + (((w + 1 + g.period - 1) / g.period) * tx_time config g))
            0 hp
      in
      let deadline = f.period in
      let rec iterate w =
        if w + c > deadline then None
        else
          let w' = demand w in
          if w' = w then Some (w + c) else iterate w'
      in
      (f.frame_name, iterate blocking))
    frames

let pp_result ppf r =
  Format.fprintf ppf "horizon=%dus busy=%dus load=%.1f%%@\n" r.horizon
    r.bus_busy (100. *. r.load);
  if r.bus_offs > 0 then
    Format.fprintf ppf "  bus-off events=%d@\n" r.bus_offs;
  List.iter
    (fun (name, s) ->
      Format.fprintf ppf
        "  %-16s queued=%d sent=%d dropped=%d err=%d maxLat=%dus@\n" name
        s.queued s.sent s.dropped s.errors s.max_latency)
    r.per_frame
