open Automode_robust
open Automode_proptest

type entry = {
  entry_id : string;
  entry_atoms : string list;
  entry_hash : string;
  entry_tags : string list;
  entry_min_ticks : int;
}

type t = {
  suite_twin : string;
  suite_model : string;
  suite_bound : int;
  suite_entries : entry list;
}

let magic = "automode-litmus-suite v1"

let of_result ?(model = "") (r : Synth.result) =
  { suite_twin = r.Synth.res_twin;
    suite_model = model;
    suite_bound = r.Synth.res_bound;
    suite_entries =
      List.map
        (fun p ->
          { entry_id = p.Synth.pin_id;
            entry_atoms = p.Synth.pin_atoms;
            entry_hash = p.Synth.pin_class.Eval.hash;
            entry_tags = p.Synth.pin_class.Eval.tags;
            entry_min_ticks = p.Synth.pin_min_ticks })
        r.Synth.res_minimal }

(* "-" stands in for the empty string so every field keeps exactly one
   token and the format stays trivially line-parseable. *)
let dash_if_empty = function "" -> "-" | s -> s
let undash = function "-" -> "" | s -> s

let to_text t =
  let buf = Buffer.create 512 in
  let line s = Buffer.add_string buf (s ^ "\n") in
  line magic;
  line ("twin " ^ t.suite_twin);
  line ("model " ^ dash_if_empty t.suite_model);
  line ("bound " ^ string_of_int t.suite_bound);
  List.iter
    (fun e ->
      line "";
      line ("scenario " ^ e.entry_id);
      line ("  atoms " ^ String.concat " " e.entry_atoms);
      line ("  hash " ^ e.entry_hash);
      line ("  min-ticks " ^ string_of_int e.entry_min_ticks);
      line ("  tags " ^ dash_if_empty (String.concat "," e.entry_tags));
      line "end")
    t.suite_entries;
  Buffer.contents buf

let ( let* ) = Result.bind

let field ~lineno ~want line =
  let prefix = want ^ " " in
  let n = String.length prefix in
  if String.length line > n && String.sub line 0 n = prefix then
    Ok (String.sub line n (String.length line - n))
  else
    Error (Printf.sprintf "line %d: expected \"%s <value>\"" lineno want)

let parse text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> String.trim l <> "")
    |> List.map (fun (i, l) -> (i, String.trim l))
  in
  match lines with
  | (l1, m) :: rest when m = magic ->
    ignore l1;
    let* twin, rest =
      match rest with
      | (n, l) :: rest ->
        let* v = field ~lineno:n ~want:"twin" l in
        Ok (v, rest)
      | [] -> Error "truncated header: missing twin"
    in
    let* model, rest =
      match rest with
      | (n, l) :: rest ->
        let* v = field ~lineno:n ~want:"model" l in
        Ok (undash v, rest)
      | [] -> Error "truncated header: missing model"
    in
    let* bound, rest =
      match rest with
      | (n, l) :: rest ->
        let* v = field ~lineno:n ~want:"bound" l in
        (match int_of_string_opt v with
         | Some b when b >= 1 -> Ok (b, rest)
         | _ -> Error (Printf.sprintf "line %d: bound must be >= 1" n))
      | [] -> Error "truncated header: missing bound"
    in
    let rec entries acc = function
      | [] -> Ok (List.rev acc)
      | (n, l) :: rest ->
        let* id = field ~lineno:n ~want:"scenario" l in
        let* atoms, rest =
          match rest with
          | (n, l) :: rest ->
            let* v = field ~lineno:n ~want:"atoms" l in
            Ok (String.split_on_char ' ' v |> List.filter (( <> ) ""), rest)
          | [] -> Error ("truncated scenario " ^ id)
        in
        let* hash, rest =
          match rest with
          | (n, l) :: rest ->
            let* v = field ~lineno:n ~want:"hash" l in
            Ok (v, rest)
          | [] -> Error ("truncated scenario " ^ id)
        in
        let* min_ticks, rest =
          match rest with
          | (n, l) :: rest ->
            let* v = field ~lineno:n ~want:"min-ticks" l in
            (match int_of_string_opt v with
             | Some t when t >= 1 -> Ok (t, rest)
             | _ -> Error (Printf.sprintf "line %d: min-ticks must be >= 1" n))
          | [] -> Error ("truncated scenario " ^ id)
        in
        let* tags, rest =
          match rest with
          | (n, l) :: rest ->
            let* v = field ~lineno:n ~want:"tags" l in
            let v = undash v in
            Ok ((if v = "" then [] else String.split_on_char ',' v), rest)
          | [] -> Error ("truncated scenario " ^ id)
        in
        let* rest =
          match rest with
          | (_, "end") :: rest -> Ok rest
          | (n, _) :: _ ->
            Error (Printf.sprintf "line %d: expected \"end\"" n)
          | [] -> Error ("truncated scenario " ^ id)
        in
        if atoms = [] then Error ("scenario " ^ id ^ ": no atoms")
        else
          entries
            ({ entry_id = id;
               entry_atoms = atoms;
               entry_hash = hash;
               entry_tags = tags;
               entry_min_ticks = min_ticks }
             :: acc)
            rest
    in
    let* suite_entries = entries [] rest in
    Ok { suite_twin = twin; suite_model = model; suite_bound = bound;
         suite_entries }
  | (n, _) :: _ ->
    Error (Printf.sprintf "line %d: expected \"%s\"" n magic)
  | [] -> Error "empty suite file"

let write ~path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_text t))

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> parse text
  | exception Sys_error e -> Error e

type replay = {
  rep_suite : t;
  rep_regressions : (string * string) list;
  rep_report : string;
}

let replay ?model ~twin ~alphabet suite =
  Builder.prepare twin.Eval.unguarded;
  Builder.prepare twin.Eval.guarded;
  let nominal = Eval.nominal twin in
  let check entry =
    let missing =
      List.filter
        (fun a -> Alphabet.find alphabet a = None)
        entry.entry_atoms
    in
    if missing <> [] then
      Error ("unknown atom " ^ String.concat "," missing)
    else
      let atoms =
        List.map
          (fun a -> (a, Option.get (Alphabet.find alphabet a)))
          entry.entry_atoms
      in
      let cls =
        Eval.evaluate_ops twin ~nominal
          ~canon:(String.concat "+" entry.entry_atoms)
          (List.map snd atoms)
      in
      if cls.Eval.hash <> entry.entry_hash then
        Error
          (Printf.sprintf "hash changed: %s -> %s" entry.entry_hash
             cls.Eval.hash)
      else if cls.Eval.tags <> entry.entry_tags then
        Error
          (Printf.sprintf "classification changed: %s -> %s"
             (String.concat "," entry.entry_tags)
             (String.concat "," cls.Eval.tags))
      else Ok ()
  in
  let results = Parallel.map (fun e -> (e, check e)) suite.suite_entries in
  let model_regression =
    match model with
    | Some m when suite.suite_model <> "" && m <> suite.suite_model ->
      [ ( "suite",
          Printf.sprintf "model digest mismatch: suite %s, current %s"
            suite.suite_model m ) ]
    | _ -> []
  in
  let regressions =
    model_regression
    @ List.filter_map
        (fun (e, r) ->
          match r with
          | Ok () -> None
          | Error what -> Some (e.entry_id, what))
        results
  in
  let buf = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "litmus replay: %s (bound %d, %d scenarios)" suite.suite_twin
    suite.suite_bound
    (List.length suite.suite_entries);
  List.iter
    (fun (_, what) -> line "  suite REGRESSED: %s" what)
    model_regression;
  List.iter
    (fun (e, r) ->
      match r with
      | Ok () -> line "  %s ok         %s" e.entry_id
                   (String.concat "+" e.entry_atoms)
      | Error what ->
        line "  %s REGRESSED  %s: %s" e.entry_id
          (String.concat "+" e.entry_atoms)
          what)
    results;
  line "replay: %d scenarios, %d regressed"
    (List.length suite.suite_entries)
    (List.length regressions);
  { rep_suite = suite; rep_regressions = regressions;
    rep_report = Buffer.contents buf }

let ok r = r.rep_regressions = []
