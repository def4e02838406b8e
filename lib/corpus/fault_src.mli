(** Fault-injection scenarios: the dynamic face of Observation 6.  Each
    scenario drives a YOLO entry point with an invalid input; missing
    validation becomes an observable memory fault in the checked
    interpreter, while the few validated paths survive. *)

type expectation = Expect_fault | Expect_survive

type scenario = {
  sc_name : string;
  sc_description : string;
  sc_expect : expectation;
  sc_driver : string;  (** C source defining [int scenario()] *)
}

val scenarios : scenario list

(** Engine form over a shared parse of the YOLO sources, so the hit sets
    different fault scenarios collect merge on identical ids.  Each driver
    is parsed after [yolo_tus] and the drivers before it, so the ids of
    all distinct units in the list are disjoint. *)
val to_scenarios : yolo_tus:Cfront.Ast.tu list -> Coverage.Scenario.t list

type outcome = {
  scenario : scenario;
  faulted : bool;
  detail : string;  (** fault message or return value *)
  as_expected : bool;
}

(** Reinterpret an engine outcome against the scenario's expectation. *)
val outcome_of : scenario -> Coverage.Scenario.outcome -> outcome

(** Run every scenario, each in a fresh interpreter, fanned out over the
    worker pool (sequential at jobs=1). *)
val run_all : unit -> outcome list

(** [(faults realized, faults expected, as-expected, total)]. *)
val summary : outcome list -> int * int * int * int
