(* A trace sink that totals span durations by ["cat.name"] and counts
   ended spans and instants by the same key.

   The checker ([Refine], the saturation [Runner]) and the daemon
   ([Server]) already emit begin/end spans and instants into a
   configured sink; the benchmark installs this one and reads the totals
   after each request. The counts are what the checker itself did: one
   ["iteration.iteration"] span per saturation iteration, one
   ["cache.cache-hit"] (or [-miss], [-replay-failed]) instant per
   operator looked up. Events may arrive from the daemon's domain, so
   the tables sit behind a mutex. *)

open Entangle_trace

type t = {
  lock : Mutex.t;
  open_ : (int * string, float list) Hashtbl.t;  (* (track, key) -> starts *)
  total : (string, float) Hashtbl.t;  (* key -> seconds *)
  seen : (string, int) Hashtbl.t;  (* key -> ended spans and instants *)
  mutable served : int;  (* ["serve"] spans ended so far *)
}

let create () =
  {
    lock = Mutex.create ();
    open_ = Hashtbl.create 16;
    total = Hashtbl.create 16;
    seen = Hashtbl.create 16;
    served = 0;
  }

let bump t key =
  Hashtbl.replace t.seen key (1 + Option.value ~default:0 (Hashtbl.find_opt t.seen key))

let record t (e : Event.t) =
  let key = e.Event.cat ^ "." ^ e.Event.name in
  match e.Event.phase with
  | Event.Begin ->
      let starts = Option.value ~default:[] (Hashtbl.find_opt t.open_ (e.tid, key)) in
      Hashtbl.replace t.open_ (e.tid, key) (e.ts :: starts)
  | Event.End -> (
      bump t key;
      match Hashtbl.find_opt t.open_ (e.tid, key) with
      | Some (start :: rest) ->
          Hashtbl.replace t.open_ (e.tid, key) rest;
          if e.Event.cat = "serve" then t.served <- t.served + 1;
          let sofar = Option.value ~default:0. (Hashtbl.find_opt t.total key) in
          Hashtbl.replace t.total key (sofar +. (e.ts -. start))
      | Some [] | None -> ())
  | Event.Instant -> bump t key
  | Event.Counter -> ()

let sink t = Sink.make (fun e -> Mutex.protect t.lock (fun () -> record t e))

(* The span totals accumulated since the last [take], in seconds. *)
let take t =
  Mutex.protect t.lock (fun () ->
      let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.total [] in
      Hashtbl.reset t.total;
      l)

let get totals key = Option.value ~default:0. (List.assoc_opt key totals)

(* How many ["cat.name"] spans have ended, or instants fired, so far. *)
let seen t key =
  Mutex.protect t.lock (fun () -> Option.value ~default:0 (Hashtbl.find_opt t.seen key))

(* The daemon closes a request's span after writing the reply, so the
   client can read the reply first. Wait (outside any timed interval)
   until [n] serve spans have ended, or a second has passed; false when
   the second passed first. *)
let await_served t n =
  let deadline = Unix.gettimeofday () +. 1. in
  let served () = Mutex.protect t.lock (fun () -> t.served) >= n in
  while (not (served ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.0002
  done;
  served ()
