(* Two-tier content-addressed cache.  The mutex guards the memory tier
   and the stats; disk I/O happens outside it (atomic rename makes
   concurrent writers safe, and double-computing an entry is only a
   wasted write — both writers produce identical bytes). *)

let format_version = "v1"

type t = {
  root : string option;            (* dir/v1, created on demand *)
  mem : (string, string) Hashtbl.t;
  order : string Queue.t;          (* FIFO insertion order for eviction *)
  capacity : int;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?dir ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity < 1";
  let root =
    Option.map
      (fun d ->
        let root = Filename.concat d format_version in
        mkdir_p root;
        root)
      dir
  in
  { root;
    mem = Hashtbl.create 256;
    order = Queue.create ();
    capacity;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    evictions = 0 }

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v -> Mutex.unlock t.lock; v
  | exception e -> Mutex.unlock t.lock; raise e

let entry_path root key =
  Filename.concat root (Stdlib.Digest.to_hex (Stdlib.Digest.string key))

(* First line: the full key (collision guard).  Second line: the
   payload's 32-hex-digit MD5 (corruption / truncation guard).  Rest:
   the payload, byte for byte. *)
let entry key payload =
  key ^ "\n" ^ Stdlib.Digest.to_hex (Stdlib.Digest.string payload) ^ "\n"
  ^ payload

let disk_read t key =
  match t.root with
  | None -> None
  | Some root ->
    let path = entry_path root key in
    (match
       let ic = open_in_bin path in
       Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () ->
           let len = in_channel_length ic in
           really_input_string ic len)
     with
     | content ->
       (* valid iff the file is exactly what [disk_write] writes *)
       let at = String.length key + 34 in
       let len = String.length content in
       let payload = String.sub content (min at len) (max 0 (len - at)) in
       if String.equal content (entry key payload) then Some payload
       else None
     | exception Sys_error _ -> None)

let write_atomic ~path content =
  let dir = Filename.dirname path in
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".tmp.%d.%s" (Unix.getpid ()) (Filename.basename path))
  in
  let oc = open_out_bin tmp in
  (try output_string oc content
   with e -> close_out_noerr oc; (try Sys.remove tmp with Sys_error _ -> ()); raise e);
  close_out oc;
  Sys.rename tmp path

let disk_write t key payload =
  match t.root with
  | None -> ()
  | Some root -> write_atomic ~path:(entry_path root key) (entry key payload)

(* Insert under the lock; FIFO eviction.  The queue can hold keys whose
   entry was since overwritten — pop until one actually leaves. *)
let mem_insert_locked t key payload =
  if not (Hashtbl.mem t.mem key) then begin
    while Hashtbl.length t.mem >= t.capacity && not (Queue.is_empty t.order) do
      let victim = Queue.pop t.order in
      if Hashtbl.mem t.mem victim then begin
        Hashtbl.remove t.mem victim;
        t.evictions <- t.evictions + 1;
        Automode_obs.Probe.count "serve.cache.evict"
      end
    done;
    Queue.push key t.order
  end;
  Hashtbl.replace t.mem key payload

let count_hit t =
  with_lock t (fun () -> t.hits <- t.hits + 1);
  Automode_obs.Probe.count "serve.cache.hit"

let count_miss t =
  with_lock t (fun () -> t.misses <- t.misses + 1);
  Automode_obs.Probe.count "serve.cache.miss"

let find t ~key ~decode =
  let payload =
    match with_lock t (fun () -> Hashtbl.find_opt t.mem key) with
    | Some _ as p -> p
    | None ->
      (match disk_read t key with
       | Some payload ->
         with_lock t (fun () -> mem_insert_locked t key payload);
         Some payload
       | None -> None)
  in
  match payload with
  | None -> count_miss t; None
  | Some payload ->
    (match decode payload with
     | Some v -> count_hit t; Some v
     | None -> count_miss t; None)

let store t ~key payload =
  with_lock t (fun () -> mem_insert_locked t key payload);
  disk_write t key payload

let stats t = with_lock t (fun () -> (t.hits, t.misses, t.evictions))

let dir t = Option.map Filename.dirname t.root
