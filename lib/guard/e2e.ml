open Automode_core
open Automode_la
open Automode_osek

type profile = {
  data_id : int;
  counter_bits : int;
  crc_bits : int;
}

let data_id_bits = 8

let profile ?(counter_bits = 4) ?(crc_bits = 8) ~data_id () =
  if data_id < 0 || data_id > 255 then
    invalid_arg "E2e.profile: data id outside 0..255";
  if counter_bits < 1 || counter_bits > 16 then
    invalid_arg "E2e.profile: counter width outside 1..16";
  if crc_bits < 1 || crc_bits > 16 then
    invalid_arg "E2e.profile: checksum width outside 1..16";
  { data_id; counter_bits; crc_bits }

let overhead_bits p = data_id_bits + p.counter_bits + p.crc_bits
let alive_modulus p = 1 lsl p.counter_bits
let max_detectable_gap p = alive_modulus p - 1

(* Deterministic checksum over (data id, alive counter, payload): the
   stable textual form of the value feeds OCaml's structural hash, which
   is fixed by the language definition — same inputs, same checksum, on
   every simulation engine and across runs. *)
let crc p ~counter v =
  Hashtbl.hash (p.data_id, counter land (alive_modulus p - 1), Value.to_string v)
  land ((1 lsl p.crc_bits) - 1)

let wrap p ~counter v =
  let c = counter land (alive_modulus p - 1) in
  Value.Tuple [ Value.Int p.data_id; Value.Int c; Value.Int (crc p ~counter:c v); v ]

let wrap_stream p vs = List.mapi (fun i v -> wrap p ~counter:i v) vs

type verdict =
  | Data of { payload : Value.t; alive : int; skipped : int }
  | Repetition
  | Wrong_id of int
  | Crc_mismatch
  | Not_protected

let check p ~last v =
  match v with
  | Value.Tuple [ Value.Int id; Value.Int c; Value.Int sum; payload ] ->
    if id <> p.data_id then Wrong_id id
    else if sum <> crc p ~counter:c payload then Crc_mismatch
    else begin
      match last with
      | None -> Data { payload; alive = c; skipped = 0 }
      | Some l ->
        let m = alive_modulus p in
        let delta = (c - l + m) mod m in
        if delta = 0 then Repetition
        else Data { payload; alive = c; skipped = delta - 1 }
    end
  | _ -> Not_protected

let check_stream p vs =
  List.rev
    (fst
       (List.fold_left
          (fun (acc, last) v ->
            let r = check p ~last v in
            let last =
              match r with Data { alive; _ } -> Some alive | _ -> last
            in
            (r :: acc, last))
          ([], None) vs))

let protect_slot p (s : Ta.frame_slot) =
  let cap = s.Ta.capacity_bits + overhead_bits p in
  if cap > 64 then
    invalid_arg
      (Printf.sprintf
         "E2e.protect_slot: %s needs %d bits protected — over the 64-bit \
          classic-CAN payload"
         s.Ta.slot_name cap);
  { s with Ta.capacity_bits = cap }

let protect_frame p (f : Can_bus.frame) =
  let bytes = f.Can_bus.payload_bytes + ((overhead_bits p + 7) / 8) in
  if bytes > 8 then
    invalid_arg
      (Printf.sprintf
         "E2e.protect_frame: %s needs %d bytes protected — over the 8-byte \
          classic-CAN payload"
         f.Can_bus.frame_name bytes);
  { f with Can_bus.payload_bytes = bytes }

(* Receiver-side loss detection over a bus run: the alive counter covers
   gaps up to [2^counter_bits - 1] consecutive lost instances; a longer
   run wraps the counter and the loss goes undetected. *)
let bus_verdict p ~bus (r : Can_bus.result) =
  let gap = max_detectable_gap p in
  let undetected =
    List.filter
      (fun (_, (s : Can_bus.frame_stats)) -> s.Can_bus.max_consec_dropped > gap)
      r.Can_bus.per_frame
  in
  let v =
    match undetected with
    | [] -> Automode_robust.Monitor.Pass
    | (name, s) :: _ ->
      Automode_robust.Monitor.Fail
        { at_tick = 0;
          reason =
            Printf.sprintf
              "%s lost %d consecutive instance(s) — alive counter wraps \
               after %d"
              name s.Can_bus.max_consec_dropped gap }
  in
  (Printf.sprintf "bus:%s:e2e-loss-detected" bus, v)
