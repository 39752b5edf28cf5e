type entry = {
  signal : string;
  sender : string;
  receivers : string list;
  size_bits : int;
  period_us : int;
}

type t = { entries : entry list }

let entry ~signal ~sender ~receivers ?(size_bits = 16) ?(period_us = 10_000)
    () =
  if receivers = [] then invalid_arg "Comm_matrix.entry: no receivers";
  if size_bits <= 0 then invalid_arg "Comm_matrix.entry: non-positive size";
  if period_us <= 0 then invalid_arg "Comm_matrix.entry: non-positive period";
  { signal; sender; receivers; size_bits; period_us }

let check m =
  let problems = ref [] in
  let signals = List.map (fun e -> e.signal) m.entries in
  let sorted = List.sort String.compare signals in
  let rec dups = function
    | a :: (b :: _ as rest) ->
      if String.equal a b then a :: dups rest else dups rest
    | [ _ ] | [] -> []
  in
  List.iter
    (fun s -> problems := Printf.sprintf "duplicate signal %s" s :: !problems)
    (List.sort_uniq String.compare (dups sorted));
  List.iter
    (fun e ->
      if List.mem e.sender e.receivers then
        problems :=
          Printf.sprintf "signal %s: sender %s is also a receiver" e.signal
            e.sender
          :: !problems)
    m.entries;
  List.rev !problems

let nodes m =
  List.concat_map (fun e -> e.sender :: e.receivers) m.entries
  |> List.sort_uniq String.compare

let signals_between m ~src ~dst =
  List.filter
    (fun e -> String.equal e.sender src && List.mem dst e.receivers)
    m.entries

let dependency_pairs m =
  List.concat_map
    (fun e -> List.map (fun r -> (e.sender, r)) e.receivers)
    m.entries
  |> List.sort_uniq compare

let stock_names =
  [ "DoorFL"; "DoorFR"; "DoorRL"; "DoorRR"; "Roof"; "SeatDriver"; "SeatPass";
    "Climate"; "Dashboard"; "BodyController"; "Gateway"; "LightFront";
    "LightRear"; "Wiper"; "Mirror"; "Trunk" ]

let generate_body_electronics ~seed ~nodes:n ~signals =
  if n < 2 then invalid_arg "generate_body_electronics: need >= 2 nodes";
  let state = Draw.state [| seed |] in
  let node i =
    let stock = List.length stock_names in
    if i < stock then List.nth stock_names i
    else Printf.sprintf "%s%d" (List.nth stock_names (i mod stock)) (i / stock)
  in
  let pick_period () =
    match Random.State.int state 4 with
    | 0 -> 10_000
    | 1 -> 20_000
    | 2 -> 50_000
    | _ -> 100_000
  in
  let entries =
    List.init signals (fun i ->
        let sender = Random.State.int state n in
        let n_recv = 1 + Random.State.int state (Stdlib.min 3 (n - 1)) in
        let rec receivers acc k =
          if k = 0 then acc
          else
            let r = Random.State.int state n in
            if r = sender || List.mem r acc then receivers acc k
            else receivers (r :: acc) (k - 1)
        in
        let recvs = receivers [] n_recv in
        { signal = Printf.sprintf "sig_%03d" i;
          sender = node sender;
          receivers = List.map node recvs;
          size_bits = 1 + Random.State.int state 32;
          period_us = pick_period () })
  in
  { entries }

let pp ppf m =
  List.iter
    (fun e ->
      Format.fprintf ppf "%-12s %-14s -> %-40s %2d bits %6d us@\n" e.signal
        e.sender
        (String.concat ", " e.receivers)
        e.size_bits e.period_us)
    m.entries
