(* Differential tests for the compile path: the hashed [Causality]
   passes against a list-based reference specification, plus
   [Sim.index]'s driver resolution and malformed-net handling. *)

open Automode_core
open Automode_workloads

let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Reference specification                                            *)
(* ------------------------------------------------------------------ *)

(* The straightforward list-scanning formulation: successors filter the
   whole edge list, Kahn's algorithm rescans the remaining edges for
   every pick.  Quadratic, but obviously faithful to the definitions;
   [Causality] must return exactly what this returns. *)
module Reference = struct
  let sccs nodes edges =
    let index = Hashtbl.create 16 in
    let lowlink = Hashtbl.create 16 in
    let on_stack = Hashtbl.create 16 in
    let stack = ref [] in
    let counter = ref 0 in
    let result = ref [] in
    let successors n =
      List.filter_map
        (fun (a, b) -> if String.equal a n then Some b else None)
        edges
    in
    let rec strongconnect v =
      Hashtbl.replace index v !counter;
      Hashtbl.replace lowlink v !counter;
      incr counter;
      stack := v :: !stack;
      Hashtbl.replace on_stack v true;
      List.iter
        (fun w ->
          if not (Hashtbl.mem index w) then begin
            strongconnect w;
            Hashtbl.replace lowlink v
              (Stdlib.min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
          end
          else if Hashtbl.mem on_stack w && Hashtbl.find on_stack w then
            Hashtbl.replace lowlink v
              (Stdlib.min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
        (successors v);
      if Hashtbl.find lowlink v = Hashtbl.find index v then begin
        let rec pop acc =
          match !stack with
          | [] -> acc
          | w :: rest ->
            stack := rest;
            Hashtbl.replace on_stack w false;
            if String.equal w v then w :: acc else pop (w :: acc)
        in
        result := pop [] :: !result
      end
    in
    List.iter
      (fun n -> if not (Hashtbl.mem index n) then strongconnect n)
      nodes;
    List.rev !result

  let nodes (net : Model.network) =
    List.map (fun (c : Model.component) -> c.comp_name) net.net_components

  let cyclic_sccs net =
    let edges = Causality.instantaneous_edges net in
    let has_self_loop n =
      List.exists (fun (a, b) -> String.equal a n && String.equal b n) edges
    in
    List.filter
      (fun scc ->
        match scc with
        | [] -> false
        | [ n ] -> has_self_loop n
        | _ :: _ :: _ -> true)
      (sccs (nodes net) edges)

  let smallest_first loops =
    List.sort (fun a b -> Int.compare (List.length a) (List.length b)) loops

  let check net =
    match cyclic_sccs net with
    | [] -> Ok ()
    | loops -> Error (smallest_first loops)

  let evaluation_order net =
    match cyclic_sccs net with
    | _ :: _ as loops -> Error (smallest_first loops)
    | [] ->
      (* Kahn's algorithm, preferring declaration order among ready
         nodes; only defined when every edge source is declared *)
      let rec go order remaining edges =
        match remaining with
        | [] -> List.rev order
        | _ ->
          let ready =
            List.find_opt
              (fun n ->
                not (List.exists (fun (_, b) -> String.equal b n) edges))
              remaining
          in
          (match ready with
           | None -> Alcotest.fail "reference: no ready node in an acyclic net"
           | Some n ->
             go (n :: order)
               (List.filter (fun m -> not (String.equal m n)) remaining)
               (List.filter (fun (a, _) -> not (String.equal a n)) edges))
      in
      Ok (go [] (nodes net) (Causality.instantaneous_edges net))
end

(* ------------------------------------------------------------------ *)
(* Random networks                                                    *)
(* ------------------------------------------------------------------ *)

type endpoint = Boundary | Node of int | Ghost

(* A network over up to 12 blocks whose edge endpoints are blocks, the
   boundary, or (as destinations only) an undeclared component.  Half
   the nets only wire forward along a random rank, so acyclic nets —
   where the evaluation order is compared — are common; the rest wire
   freely, giving self-loops and multi-node cycles.  Few edges leave
   many blocks isolated or ready at once (declaration-order ties), and
   names may be declared twice. *)
let gen_net : Model.network QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = int_range 0 12 in
  let block = int_range 0 (Stdlib.max 0 (n - 1)) in
  let* redeclared =
    if n = 0 then pure [] else list_size (int_range 0 2) block
  in
  let* decl_order = shuffle_l (List.init n Fun.id @ redeclared) in
  let* rank = map Array.of_list (shuffle_l (List.init n Fun.id)) in
  let* forward_only = bool in
  let endpoint ~ghost =
    if n = 0 then pure Boundary
    else
      frequency
        ([ (1, pure Boundary); (8, map (fun i -> Node i) block) ]
        @ if ghost then [ (1, pure Ghost) ] else [])
  in
  let* raw =
    list_size
      (int_range 0 ((2 * n) + 2))
      (triple (endpoint ~ghost:false) (endpoint ~ghost:true)
         (frequencyl [ (3, false); (1, true) ]))
  in
  let* dups =
    if raw = [] then pure [] else list_size (int_range 0 2) (oneofl raw)
  in
  let forward (a, b, _) =
    match a, b with
    | Node i, Node j -> rank.(i) < rank.(j)
    | (Boundary | Node _ | Ghost), _ -> true
  in
  let edges = raw @ dups in
  let edges = if forward_only then List.filter forward edges else edges in
  let name i = Printf.sprintf "N%d" i in
  let ep = function
    | Boundary -> ("", "io")
    | Node i -> (name i, "p")
    | Ghost -> ("Ghost", "p")
  in
  let blocks =
    List.map
      (fun i ->
        Dfd.block_of_expr ~name:(name i) ~inputs:[ ("p", None) ] (Expr.var "p"))
      decl_order
  in
  let channels =
    List.mapi
      (fun k (a, b, delayed) ->
        Dfd.wire ~delayed (Printf.sprintf "c%d" k) (ep a) (ep b))
      edges
  in
  pure
    { Model.net_name = "Rand"; net_components = blocks;
      net_channels = channels }

let print_net (net : Model.network) =
  Printf.sprintf "components [%s]; channels [%s]"
    (String.concat "; "
       (List.map (fun (c : Model.component) -> c.comp_name) net.net_components))
    (String.concat "; "
       (List.map
          (fun (ch : Model.channel) ->
            let ep (e : Model.endpoint) =
              Option.value ~default:"" e.ep_comp ^ "." ^ e.ep_port
            in
            Printf.sprintf "%s%s->%s" (ep ch.ch_src)
              (if ch.ch_delayed then " (delayed) " else "")
              (ep ch.ch_dst))
          net.net_channels))

let arb_net = QCheck.make ~print:print_net gen_net

let prop_check_matches_reference =
  QCheck.Test.make
    ~name:"check equals the reference (loops and members in order)"
    ~count:1000 arb_net
    (fun net -> Causality.check net = Reference.check net)

let prop_order_matches_reference =
  QCheck.Test.make ~name:"evaluation_order equals the reference" ~count:1000
    arb_net
    (fun net -> Causality.evaluation_order net = Reference.evaluation_order net)

let prop_random_dfd_matches_reference =
  QCheck.Test.make ~name:"random_dfd order equals the reference" ~count:20
    QCheck.(pair (int_range 1 1000) (int_range 1 120))
    (fun (seed, n) ->
      let net = Workloads.random_dfd ~seed ~n in
      Causality.evaluation_order net = Reference.evaluation_order net)

(* ------------------------------------------------------------------ *)
(* Unit tests                                                         *)
(* ------------------------------------------------------------------ *)

let blk name =
  Dfd.block_of_expr ~name ~inputs:[ ("x", None); ("y", None) ]
    Expr.(var "x" + var "y")

(* B reads from a component nobody declared. *)
let ghost_net : Model.network =
  { net_name = "Haunted";
    net_components = [ blk "B"; blk "A" ];
    net_channels =
      [ Dfd.wire "in" ("", "src") ("A", "x");
        Dfd.wire "spook" ("Ghost", "out") ("B", "x");
        Dfd.wire "ab" ("A", "out") ("B", "y");
        Dfd.wire "out" ("B", "out") ("", "dst") ] }

let test_order_undeclared_source () =
  (* an undeclared source is never evaluated, so it imposes no order *)
  (match Causality.evaluation_order ghost_net with
   | Ok order -> Alcotest.(check (list string)) "order" [ "A"; "B" ] order
   | Error _ -> Alcotest.fail "no loop in the net");
  checkb "check passes" true (Causality.check ghost_net = Ok ())

let test_index_undeclared_source () =
  let comp =
    Dfd.of_network
      ~ports:[ Model.in_port "src"; Model.out_port "dst" ]
      ghost_net
  in
  match Sim.index comp with
  | _ -> Alcotest.fail "Sim.index accepted a channel from Ghost"
  | exception Sim.Sim_error msg ->
    Alcotest.(check string) "message" "network Haunted: unknown component Ghost"
      msg

let test_first_channel_drives () =
  (* two channels target B.x: the first in channel order drives it, in
     the indexed engine as in the interpreter *)
  let net : Model.network =
    { net_name = "Twice";
      net_components =
        [ Dfd.block_of_expr ~name:"B" ~inputs:[ ("x", None) ] (Expr.var "x") ];
      net_channels =
        [ Dfd.wire "first" ("", "a") ("B", "x");
          Dfd.wire "second" ("", "b") ("B", "x");
          Dfd.wire "out" ("B", "out") ("", "o") ] }
  in
  let comp =
    Dfd.of_network
      ~ports:[ Model.in_port "a"; Model.in_port "b"; Model.out_port "o" ]
      net
  in
  let inputs t =
    [ ("a", Value.Present (Value.Int t));
      ("b", Value.Present (Value.Int (100 + t))) ]
  in
  let indexed = Sim.run_indexed ~ticks:3 ~inputs (Sim.index comp) in
  checkb "o follows a" true
    (List.for_all2 Value.equal_message (Trace.column indexed "o")
       (List.init 3 (fun t -> Value.Present (Value.Int t))));
  checkb "indexed equals interpreted" true
    (Trace.equal indexed (Sim.run ~ticks:3 ~inputs comp))

let test_indexed_800_matches_interpreted () =
  let comp = Workloads.random_dfd_component ~seed:42 ~n:800 in
  let inputs t = [ ("src", Value.Present (Value.Float (float_of_int t))) ] in
  let ticks = 6 in
  checkb "n=800 indexed trace equals interpreted" true
    (Trace.equal (Sim.run ~ticks ~inputs comp)
       (Sim.run_indexed ~ticks ~inputs (Sim.index comp)))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "automode-causality"
    [ ( "differential",
        qsuite
          [ prop_check_matches_reference; prop_order_matches_reference;
            prop_random_dfd_matches_reference ] );
      ( "malformed",
        [ Alcotest.test_case "order ignores undeclared source" `Quick
            test_order_undeclared_source;
          Alcotest.test_case "index rejects undeclared source" `Quick
            test_index_undeclared_source ] );
      ( "index",
        [ Alcotest.test_case "first channel drives a port" `Quick
            test_first_channel_drives;
          Alcotest.test_case "n=800 indexed equals interpreted" `Quick
            test_indexed_800_matches_interpreted ] ) ]
