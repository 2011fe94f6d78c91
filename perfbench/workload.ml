(* What every workload hands the driver once it is set up. *)

type pass = {
  wall : float;  (** seconds for one pass over the operation list *)
  latencies : float list;  (** one per attempted operation *)
  attempted : int;
  failed : int;
  good : int;  (** operations that produced a usable answer *)
}

type env = {
  pass : unit -> pass;  (** untraced; keeps its answers for the gate *)
  traced_pass : unit -> pass;
      (** the same operations under the benchmark's spans, then any
          per-layer probes the workload needs (outside [wall]) *)
  gate : unit -> string list;
      (** correctness errors over every answer kept so far; run after
          all timing *)
  teardown : unit -> unit;
}

let tally ~wall ~latencies ~failed_of results =
  let failed = List.length (List.filter failed_of results) in
  let attempted = List.length results in
  { wall; latencies; attempted; failed; good = attempted - failed }
