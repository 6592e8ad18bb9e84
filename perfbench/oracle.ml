(* Known answers, held as data: nothing here runs the checker.

   Every Figure-4 grid cell and every zoo model refines. Each of the
   nine bugs gets the verdict kind Table 3 of the paper gives it, and
   each certificate mutation is rejected with its own CERT code. *)

type verdict = Refines | Unmapped | Expectation_violated

let verdict_name = function
  | Refines -> "refines"
  | Unmapped -> "unmapped"
  | Expectation_violated -> "expectation-violated"

type bug_kind = Refinement_failure | Expectation_violation

(* Table 3: bugs 5, 8 and 9 are user-expectation cases (a refinement
   exists, but not the one the implementation assumed); the other six
   admit no clean relation at all. *)
let table3 =
  [
    (1, Refinement_failure);
    (2, Refinement_failure);
    (3, Refinement_failure);
    (4, Refinement_failure);
    (5, Expectation_violation);
    (6, Refinement_failure);
    (7, Refinement_failure);
    (8, Expectation_violation);
    (9, Expectation_violation);
  ]

let bug_kind id = List.assoc id table3

(* In process the benchmark runs the expectation check for the
   expectation cases, so each bug shows its Table-3 kind. The daemon's
   [check] verb answers the refinement question only, so there an
   expectation case refines. *)
let local_bug id =
  match bug_kind id with
  | Refinement_failure -> Unmapped
  | Expectation_violation -> Expectation_violated

let daemon_bug id =
  match bug_kind id with
  | Refinement_failure -> Unmapped
  | Expectation_violation -> Refines

type mutation = Truncate | Section_flip | Rebind

let mutations = [ Truncate; Section_flip; Rebind ]

let mutation_name = function
  | Truncate -> "truncate"
  | Section_flip -> "section-flip"
  | Rebind -> "rebind"

(* Truncation breaks the framing, a flipped section byte breaks that
   section's content digest, and a rebound statement fingerprint no
   longer matches what the sections certify. *)
let mutation_code = function
  | Truncate -> "CERT001"
  | Section_flip -> "CERT004"
  | Rebind -> "CERT005"
