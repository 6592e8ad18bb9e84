(* A reference kernel in the benchmark's own code, run around every
   set-up repetition and between passes, to measure how fast the host is
   while the workload runs.

   On a shared virtual machine the host's speed moves in phases of
   minutes: a neighbour that thrashes the shared caches or memory slows
   the checker by up to half, and an integer loop alone barely notices.
   The checker's time goes into allocation, hash tables and pointer
   walks, so the kernel does the same kinds of work, each part timed on
   its own:

   - [walk_far]: a dependent random walk over a 32 MiB ring, bound by
     memory latency;
   - [walk_near]: the same over a 1 MiB ring, bound by cache latency;
   - [churn]: short-lived hash tables and lists, bound by allocation and
     minor collections;
   - [int]: a register-only integer loop.

   The kernel is fixed: no change to the checker changes the work it
   does. The rings live outside the OCaml heap and the churn never
   outlives a minor collection, so it leaves the measured heap (and its
   peak) alone. *)

module A = Bigarray.Array1

(* A random single cycle over [0, 2^bits) (Sattolo's algorithm, with a
   fixed generator): following it visits every slot once, in an order
   the prefetcher cannot guess. *)
let ring bits =
  let n = 1 lsl bits in
  let a = A.create Bigarray.int32 Bigarray.c_layout n in
  for i = 0 to n - 1 do
    A.unsafe_set a i (Int32.of_int i)
  done;
  let rng = Random.State.make [| 0x7e57; bits |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = A.unsafe_get a i in
    A.unsafe_set a i (A.unsafe_get a j);
    A.unsafe_set a j t
  done;
  a

let far = lazy (ring 23)
let near = lazy (ring 18)

let walk a steps =
  let i = ref 0 in
  for _ = 1 to steps do
    i := Int32.to_int (A.unsafe_get a !i)
  done;
  Sys.opaque_identity !i

let churn () =
  let acc = ref 0 in
  for k = 1 to 60 do
    let t = Hashtbl.create 16 in
    for i = 0 to 999 do
      Hashtbl.replace t ((i * 7919) + k) [ i; k ]
    done;
    acc := !acc + Hashtbl.length t
  done;
  Sys.opaque_identity !acc

let int_loop () =
  let h = ref 0 in
  for i = 1 to 1_000_000 do
    h := ((!h * 31) + i) land 0xffffff
  done;
  Sys.opaque_identity !h

(* Each part, with an untimed step that runs first: one lap of the near
   ring, so that its time does not depend on what the workload left in
   the caches. *)
let parts =
  [
    ("walk_far", ignore, fun () -> walk (Lazy.force far) 60_000);
    ( "walk_near",
      (fun () -> ignore (walk (Lazy.force near) (1 lsl 18))),
      fun () -> walk (Lazy.force near) 400_000 );
    ("churn", ignore, churn);
    ("int", ignore, int_loop);
  ]

(* Build the rings; call before anything is timed. *)
let prepare () = ignore (Lazy.force far, Lazy.force near)

let total s = List.fold_left (fun acc (_, ms) -> acc +. ms) 0. s

(* Every sample this process has taken, newest first. *)
let taken = ref []

(* Run the kernel once, log each part's wall time in ms, and return the
   whole kernel's. *)
let sample () =
  let s =
    List.map
      (fun (name, untimed, f) ->
        untimed ();
        let t = Unix.gettimeofday () in
        ignore (f ());
        (name, 1e3 *. (Unix.gettimeofday () -. t)))
      parts
  in
  taken := s :: !taken;
  total s

let samples () = List.rev !taken

(* The kernel's median time over the run, in ms. *)
let median_ms () = Stats.median (List.map total !taken)

(* Each part's median over the run, in ms. *)
let part_medians () =
  List.map
    (fun (name, _, _) -> (name, Stats.median (List.map (List.assoc name) !taken)))
    parts

(* What the kernel takes on the reference host, in ms: a 2-vCPU
   virtual machine in a quiet phase, with the default GC settings. *)
let reference_ms = 40.

(* The factor that brings a time measured while the kernel took
   [kernel_ms] to the reference host's speed: a time measured while the
   kernel ran at twice its reference time is halved. *)
let calibration_at kernel_ms = reference_ms /. kernel_ms
