(** Pareto-archive design-space search on the batch driver.

    Seeded coordinate descent with neighborhood expansion:

    + seed the archive with the legacy fixed grid (so the result can
      never be worse than the old 8-point sweep);
    + evaluate each round's candidates as one job batch on a live
      {!Driver} session — the domain pool is spawned once and the
      content-addressed cache is shared across rounds and runs;
    + insert feasible results into a {!Pareto} archive (dominance
      pruning; budget-violating points are counted and dropped);
    + next round's candidates are the one-axis {!Space.neighbors} of
      the current frontier, minus everything already evaluated;
    + stop when the frontier has been stable for [stable_rounds]
      consecutive rounds, or on the eval/round caps, or when the
      neighborhood is exhausted.

    Determinism: candidates are canonically sorted, the driver
    preserves job order at any worker count, and the archive is a pure
    value — the frontier is byte-identical for any [--jobs].  One
    {!Support.Tracing} event is emitted per round (stage ["dse"]). *)

module K = Workloads.Kernels
module E = Hls_backend.Estimate
module Driver = Mhls_driver.Driver

type budget = {
  b_max_bram : int option;
  b_max_dsp : int option;
  b_max_lut : int option;
}

let no_budget = { b_max_bram = None; b_max_dsp = None; b_max_lut = None }

type params = {
  max_evals : int;  (** cap on distinct configurations evaluated *)
  max_rounds : int;
  stable_rounds : int;  (** stop after this many frontier-stable rounds *)
  budget : budget;
  clock_ns : float;
}

let default_params =
  {
    max_evals = 64;
    max_rounds = 16;
    stable_rounds = 2;
    budget = no_budget;
    clock_ns = Hls_backend.Op_model.default_clock_ns;
  }

(** One evaluated, feasible, non-dominated design point. *)
type point = {
  pt_label : string;  (** [Space.describe] of the config *)
  pt_config : Space.config;
  pt_directives : K.directives;
  pt_report : E.report;
}

type round_stat = {
  rs_round : int;  (** 1-based *)
  rs_candidates : int;
  rs_full_evals : int;  (** candidates actually compiled this round *)
  rs_cache_hits : int;
  rs_frontier : int;  (** frontier size after the round *)
  rs_seconds : float;  (** wall; excluded from dse.json *)
}

type stop_reason = [ `Stable | `Max_rounds | `Max_evals | `Exhausted ]

let stop_reason_name : stop_reason -> string = function
  | `Stable -> "stable"
  | `Max_rounds -> "max-rounds"
  | `Max_evals -> "max-evals"
  | `Exhausted -> "exhausted"

type outcome = {
  o_kernel : string;
  o_space : Space.t;
  o_frontier : point list;  (** sorted by label; the Pareto frontier *)
  o_evaluated : int;  (** distinct configurations evaluated *)
  o_full_evals : int;  (** evaluations that actually compiled *)
  o_cache_hits : int;  (** evaluations served by the result cache *)
  o_infeasible : (string * Support.Diag.t list) list;
      (** label → diagnostics, for configs the flow rejected *)
  o_over_budget : int;  (** feasible points dropped by the budget *)
  o_rounds : round_stat list;
  o_stopped : stop_reason;
}

(** Objectives (minimized): latency, BRAM, DSP, LUT — the axes the old
    fixed-grid frontier used, so old and new frontiers are directly
    comparable. *)
let objectives_of_report (r : E.report) : Pareto.objectives =
  [|
    r.E.latency; r.E.resources.E.bram; r.E.resources.E.dsp;
    r.E.resources.E.lut;
  |]

let within_budget (b : budget) (r : E.report) : bool =
  let ok limit v = match limit with None -> true | Some m -> v <= m in
  ok b.b_max_bram r.E.resources.E.bram
  && ok b.b_max_dsp r.E.resources.E.dsp
  && ok b.b_max_lut r.E.resources.E.lut

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

(** Run the search.  Total: evaluation failures become [o_infeasible]
    entries, never exceptions.  [scheds] selects the estimation-backend
    axis (default static only — the historical space). *)
let search ?(params = default_params) ?scheds ?pipeline ?cache_dir
    ?(jobs = 1) ?(trace = Support.Tracing.null) (kernel : K.kernel) : outcome
    =
  let sp = Space.of_kernel ?scheds kernel in
  Driver.with_session ?pipeline ?cache_dir ~jobs (fun session ->
      let evaluated : (string, unit) Hashtbl.t = Hashtbl.create 64 in
      let archive = ref Pareto.empty in
      let infeasible = ref [] in
      let over_budget = ref 0 in
      let full = ref 0 and hits = ref 0 in
      let rounds = ref [] in
      let frontier_configs () =
        List.map
          (fun (e : point Pareto.entry) -> e.Pareto.e_payload.pt_config)
          (Pareto.frontier !archive)
      in
      let evaluate_round round cands =
        let t0 = Support.Tracing.now () in
        let before = Pareto.size !archive in
        let js =
          List.map
            (fun c ->
              Driver.job ~label:(Space.describe c) ~sched:c.Space.c_sched
                ~clock_ns:params.clock_ns ~kernel:kernel.K.kname
                (Space.to_directives sp c))
            cands
        in
        (* the session is lexically open here ([with_session] scope) *)
        let outs = Driver.submit_exn session js in
        let round_full = ref 0 and round_hits = ref 0 in
        let changed = ref false in
        List.iter2
          (fun c (o : Driver.outcome) ->
            let label = Space.describe c in
            Hashtbl.replace evaluated label ();
            if o.Driver.o_from_cache then incr round_hits
            else incr round_full;
            match o.Driver.o_qor with
            | Error ds -> infeasible := (label, ds) :: !infeasible
            | Ok r ->
                if not (within_budget params.budget r) then
                  incr over_budget
                else begin
                  let pt =
                    {
                      pt_label = label;
                      pt_config = c;
                      pt_directives = Space.to_directives sp c;
                      pt_report = r;
                    }
                  in
                  let a, ch =
                    Pareto.insert !archive
                      (Pareto.entry ~key:label
                         ~obj:(objectives_of_report r) pt)
                  in
                  archive := a;
                  if ch then changed := true
                end)
          cands outs;
        full := !full + !round_full;
        hits := !hits + !round_hits;
        let after = Pareto.size !archive in
        let seconds = Support.Tracing.now () -. t0 in
        rounds :=
          {
            rs_round = round;
            rs_candidates = List.length cands;
            rs_full_evals = !round_full;
            rs_cache_hits = !round_hits;
            rs_frontier = after;
            rs_seconds = seconds;
          }
          :: !rounds;
        trace
          (Support.Tracing.event ~stage:"dse"
             ~pass:(Printf.sprintf "round-%d" round)
             ~seconds ~before ~after);
        !changed
      in
      let rec loop round stable queue =
        let fresh =
          List.filter
            (fun c -> not (Hashtbl.mem evaluated (Space.describe c)))
            queue
        in
        let remaining = params.max_evals - Hashtbl.length evaluated in
        if fresh = [] then `Exhausted
        else if remaining <= 0 then `Max_evals
        else if round > params.max_rounds then `Max_rounds
        else
          let changed = evaluate_round round (take remaining fresh) in
          let stable = if changed then 0 else stable + 1 in
          if stable >= params.stable_rounds then `Stable
          else
            let queue =
              List.concat_map (Space.neighbors sp) (frontier_configs ())
              |> List.sort_uniq (fun a b ->
                     compare (Space.describe a) (Space.describe b))
            in
            loop (round + 1) stable queue
      in
      let stopped = loop 1 0 (Space.seeds sp) in
      {
        o_kernel = kernel.K.kname;
        o_space = sp;
        o_frontier =
          List.map
            (fun (e : point Pareto.entry) -> e.Pareto.e_payload)
            (Pareto.frontier !archive);
        o_evaluated = Hashtbl.length evaluated;
        o_full_evals = !full;
        o_cache_hits = !hits;
        o_infeasible =
          List.sort (fun (a, _) (b, _) -> compare a b) !infeasible;
        o_over_budget = !over_budget;
        o_rounds = List.rev !rounds;
        o_stopped = stopped;
      })

(** Fastest frontier point (label breaks latency ties). *)
let best (o : outcome) : point option =
  List.fold_left
    (fun acc p ->
      match acc with
      | None -> Some p
      | Some b ->
          if p.pt_report.E.latency < b.pt_report.E.latency then Some p
          else acc)
    None o.o_frontier

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

(** Deterministic frontier table: depends only on the frontier, never
    on timing or cache state. *)
let render_frontier (o : outcome) : string =
  let t =
    Support.Table.create
      ~aligns:
        [ Support.Table.Left; Support.Table.Right; Support.Table.Right;
          Support.Table.Right; Support.Table.Right; Support.Table.Right ]
      [ "config"; "latency"; "BRAM"; "DSP"; "FF"; "LUT" ]
  in
  List.iter
    (fun p ->
      let r = p.pt_report in
      Support.Table.add_row t
        [
          p.pt_label;
          string_of_int r.E.latency;
          string_of_int r.E.resources.E.bram;
          string_of_int r.E.resources.E.dsp;
          string_of_int r.E.resources.E.ff;
          string_of_int r.E.resources.E.lut;
        ])
    o.o_frontier;
  Support.Table.render t

(** Full report: frontier table plus search statistics. *)
let render (o : outcome) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "DSE %s: space of %d configs, %d evaluated\n" o.o_kernel
       (Space.size o.o_space) o.o_evaluated);
  Buffer.add_string b (render_frontier o);
  Buffer.add_char b '\n';
  Buffer.add_string b
    (Printf.sprintf
       "frontier %d points; %d full evals, %d cache hits; %d infeasible, %d \
        over budget; stopped: %s after %d round(s)\n"
       (List.length o.o_frontier)
       o.o_full_evals o.o_cache_hits
       (List.length o.o_infeasible)
       o.o_over_budget
       (stop_reason_name o.o_stopped)
       (List.length o.o_rounds));
  List.iter
    (fun rs ->
      Buffer.add_string b
        (Printf.sprintf
           "  round %d: %d candidates (%d compiled, %d cached), frontier %d \
            (%.2fs)\n"
           rs.rs_round rs.rs_candidates rs.rs_full_evals rs.rs_cache_hits
           rs.rs_frontier rs.rs_seconds))
    o.o_rounds;
  Buffer.contents b
