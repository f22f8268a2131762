(** The [mhlsc lint] rule registry: dataflow-analysis-driven HLS
    diagnostics.

    Every rule has a stable ID and emits accumulating {!Support.Diag}
    diagnostics instead of failing fast, so one run reports everything
    it can find:

    - [HLS000] (error) — the module fails IR verification;
    - [HLS001] (warning) — a pipelined loop requests an initiation
      interval below the recurrence minimum (register accumulation
      chains and known-distance loop-carried memory dependences);
    - [HLS002] (warning) — a pipelined loop has a loop-carried memory
      dependence the analysis cannot bound (the scheduler must assume
      distance 1);
    - [HLS003] (warning) — an array-partition directive conflicts with
      the observed access pattern (bank conflicts, or a directive that
      cannot apply to the flattened view);
    - [HLS004] (warning) — a store to a local array that no path ever
      reads (dead store);
    - [HLS005] (warning) — an unused top-function parameter (a dangling
      interface port);
    - [HLS006] (warning) — an unreachable basic block;
    - [HLS007] (note) — a loop with no static trip count (latency
      estimation needs a [SpecLoopTripCount] marker);
    - [HLS008] (warning) — a partitioned array is reached through a
      pointer the alias oracle cannot attribute to it, so banking
      cannot be proven conflict-free;
    - [HLS009] (warning) — two functions both write the same module
      global (a cross-function write-write conflict);
    - [HLS010] (warning) — the top function calls a function whose
      memory effects are unknown;
    - [HLS101]–[HLS106] — the {!Adaptor.Compat} issue family
      re-reported as accumulated diagnostics.

    The analyses behind the rules are {!Llvmir.Dataflow} (dead
    stores), {!Llvmir.Memdep} (loop-carried dependence distances),
    {!Llvmir.Alias} / {!Llvmir.Effects} / {!Llvmir.Parsafe}
    (aliasing, effect footprints, cross-function conflicts) and
    {!Directives} (pipeline/partition requests). *)

open Llvmir
open Linstr
module Sym = Support.Interner
module Diag = Support.Diag

(** The rule catalog: (ID, default severity, one-line description).
    Keep in sync with the README's rule table. *)
let catalog : (string * Diag.severity * string) list =
  [
    ("HLS000", Diag.Error, "module fails LLVM IR verification");
    ("HLS001", Diag.Warning, "requested pipeline II is below the recurrence minimum");
    ("HLS002", Diag.Warning, "loop-carried memory dependence with unknown distance");
    ("HLS003", Diag.Warning, "array partition conflicts with the access pattern");
    ("HLS004", Diag.Warning, "store to a local array that is never read");
    ("HLS005", Diag.Warning, "unused top-function parameter");
    ("HLS006", Diag.Warning, "unreachable basic block");
    ("HLS007", Diag.Note, "loop has no static trip count");
    ("HLS008", Diag.Warning, "may-aliased access defeats array partitioning");
    ("HLS009", Diag.Warning, "cross-function write-write conflict on a global");
    ("HLS010", Diag.Warning, "top function calls a function with unknown effects");
    ("HLS101", Diag.Error, "opaque pointer in HLS input");
    ("HLS102", Diag.Error, "memref descriptor aggregate in HLS input");
    ("HLS103", Diag.Error, "modern intrinsic unsupported by the HLS frontend");
    ("HLS104", Diag.Error, "freeze instruction in HLS input");
    ("HLS105", Diag.Warning, "untranslated modern loop metadata");
    ("HLS106", Diag.Error, "unsupported aggregate operation");
  ]

let cdiv a b = (a + b - 1) / b

(* ------------------------------------------------------------------ *)
(* Recurrence analysis (HLS001)                                       *)
(* ------------------------------------------------------------------ *)

(** Latency of the longest def-use chain from header phi [phi] back
    around the loop to its latch-incoming value [latch_v]: the cycles
    one iteration's value needs before the next iteration can start.
    [None] when the latch value does not depend on the phi (no register
    recurrence through this phi). *)
let recurrence_chain (idx : Findex.t) (phi : Linstr.t)
    (latch_v : Lvalue.t) : (int * Sym.t) option =
  match latch_v with
  | Lvalue.Reg (lr, _) ->
      let memo : (int * Sym.t) option Sym.Tbl.t = Sym.Tbl.create 16 in
      let rec go r =
        if Sym.equal r phi.result then Some (0, r)
        else
          match Sym.Tbl.find_opt memo r with
          | Some v -> v
          | None ->
              Sym.Tbl.add memo r None;  (* cycle guard *)
              let res =
                match Findex.def_instr idx r with
                | None -> None
                | Some i ->
                    let _, cost = Op_model.classify i in
                    let best =
                      List.fold_left
                        (fun acc v ->
                          match v with
                          | Lvalue.Reg (n, _) -> (
                              match (go n, acc) with
                              | Some (c, _), Some (c0, _) when c0 >= c -> acc
                              | Some (c, _), _ -> Some (c, n)
                              | None, _ -> acc)
                          | _ -> acc)
                        None (operands i)
                    in
                    Option.map
                      (fun (c, _) -> (c + cost.Op_model.latency, r))
                      best
              in
              Sym.Tbl.replace memo r res;
              res
      in
      go lr
  | _ -> None

(** Register-recurrence minimum II of loop [j]: the longest carry-phi
    chain, with the register closing it (for the message). *)
let register_rec_mii (cfg : Cfg.t) (li : Loop_info.t) (j : int)
    (idx : Findex.t) : (int * Sym.t) option =
  let l = li.Loop_info.loops.(j) in
  let header = Cfg.block cfg l.Loop_info.header in
  let latch_labels = List.map (Cfg.label cfg) l.Loop_info.latches in
  List.fold_left
    (fun acc (i : Linstr.t) ->
      match i.op with
      | Phi incoming -> (
          let chains =
            List.filter_map
              (fun (v, lbl) ->
                if List.mem lbl latch_labels then recurrence_chain idx i v
                else None)
              incoming
          in
          List.fold_left
            (fun acc c ->
              match (acc, c) with
              | Some (c0, _), (c1, _) when c0 >= c1 -> acc
              | _, c -> Some c)
            acc chains)
      | _ -> acc)
    None header.Lmodule.insts

(** Minimum II imposed by a known-distance carried memory dependence:
    the store→load round trip must fit in [distance] initiations. *)
let mem_dep_mii (d : Memdep.dep) : int option =
  match d.Memdep.dep_verdict with
  | Memdep.Carried dist when dist > 0 ->
      let lat (a : Memdep.access) =
        (snd (Op_model.classify a.Memdep.acc_inst)).Op_model.latency
      in
      Some (cdiv (lat d.Memdep.dep_src + lat d.Memdep.dep_dst) dist)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Per-function rules                                                 *)
(* ------------------------------------------------------------------ *)

let access_pos (cfg : Cfg.t) (a : Memdep.access) =
  Printf.sprintf "%s in %%%s"
    (if a.Memdep.acc_is_store then "store" else "load")
    (Sym.name (Cfg.label cfg a.Memdep.acc_block))

(** HLS001 / HLS002 / HLS007 — loop-level rules. *)
let lint_loops (buf : Diag.buffer) (f : Lmodule.func) (idx : Findex.t)
    (li : Loop_info.t) =
  let cfg = li.Loop_info.cfg in
  Array.iteri
    (fun j (l : Loop_info.loop) ->
      let header = Sym.name (Cfg.label cfg l.Loop_info.header) in
      let dirs = Directives.loop_directives cfg li j in
      if
        dirs.Directives.tripcount = None
        && Loop_info.trip_count_pattern li j = None
      then
        Diag.add buf
          (Diag.note ~func:f.Lmodule.fname ~location:header ~rule:"HLS007"
             ~hint:"add a loop trip-count directive (SpecLoopTripCount)"
             "loop has no static trip count; latency cannot be estimated");
      match dirs.Directives.pipeline_ii with
      | None -> ()
      | Some target ->
          let deps = Memdep.analyze_loop idx li j in
          let reg = register_rec_mii cfg li j idx in
          let mem =
            List.fold_left
              (fun acc d ->
                match (mem_dep_mii d, acc) with
                | Some m, Some (m0, _) when m0 >= m -> acc
                | Some m, _ -> Some (m, d)
                | None, _ -> acc)
              None deps
          in
          let reg_mii = match reg with Some (c, _) -> c | None -> 0 in
          let mem_mii = match mem with Some (m, _) -> m | None -> 0 in
          let min_ii = max 1 (max reg_mii mem_mii) in
          if target < min_ii then begin
            let why =
              if reg_mii >= mem_mii then
                match reg with
                | Some (_, r) ->
                    Printf.sprintf "register recurrence through %%%s"
                      (Sym.name r)
                | None -> "recurrence"
              else
                match mem with
                | Some (_, d) ->
                    Printf.sprintf
                      "loop-carried dependence on %s (%s -> %s, distance %s)"
                      d.Memdep.dep_array
                      (access_pos cfg d.Memdep.dep_src)
                      (access_pos cfg d.Memdep.dep_dst)
                      (match d.Memdep.dep_verdict with
                      | Memdep.Carried k -> string_of_int k
                      | v -> Memdep.verdict_to_string v)
                | None -> "memory dependence"
            in
            Diag.add buf
              (Diag.warning ~func:f.Lmodule.fname ~location:header
                 ~rule:"HLS001"
                 ~hint:
                   (Printf.sprintf "request II >= %d or break the recurrence"
                      min_ii)
                 "pipeline II %d is infeasible: %s needs II >= %d" target why
                 min_ii)
          end;
          List.iter
            (fun (d : Memdep.dep) ->
              if d.Memdep.dep_verdict = Memdep.Unknown then
                Diag.add buf
                  (Diag.warning ~func:f.Lmodule.fname ~location:header
                     ~rule:"HLS002"
                     ~hint:
                       "the scheduler must serialize these accesses; make \
                        the subscripts affine in the loop IV"
                     "loop-carried dependence on %s with unknown distance \
                      (%s -> %s) in pipelined loop"
                     d.Memdep.dep_array
                     (access_pos cfg d.Memdep.dep_src)
                     (access_pos cfg d.Memdep.dep_dst)))
            deps)
    li.Loop_info.loops

(** HLS003 — array-partition directives vs access patterns. *)
let lint_partitions (buf : Diag.buffer) (f : Lmodule.func) (idx : Findex.t)
    (li : Loop_info.t) =
  let cfg = li.Loop_info.cfg in
  let arrays = Directives.arrays f in
  let find_array n =
    List.find_opt (fun a -> a.Directives.aname = n) arrays
  in
  (* a directive that cannot apply to the (flattened) view at all *)
  List.iter
    (fun (p : Lmodule.param) ->
      let get k = List.assoc_opt k p.Lmodule.pattrs in
      let factor =
        match get "fpga.partition.factor" with
        | Some s -> Option.value ~default:1 (int_of_string_opt s)
        | None -> 1
      in
      if factor > 1 then
        match find_array p.Lmodule.pname with
        | Some a
          when a.Directives.partition_factor <= 1
               && a.Directives.partition_kind <> "complete" ->
            let dim =
              Option.value ~default:"1" (get "fpga.partition.dim")
            in
            Diag.add buf
              (Diag.warning ~func:f.Lmodule.fname ~location:p.Lmodule.pname
                 ~rule:"HLS003"
                 ~hint:
                   "re-run descriptor elimination with delinearization to \
                    recover the array shape"
                 "partition directive (factor %d, dim %s) cannot apply: the \
                  %d-dimensional view of %%%s lacks that dimension"
                 factor dim
                 (List.length a.Directives.dims)
                 p.Lmodule.pname)
        | _ -> ())
    f.Lmodule.params;
  (* bank conflicts between the partition scheme and the access stride
     in pipelined loops *)
  let seen = Hashtbl.create 8 in
  Array.iteri
    (fun j (l : Loop_info.loop) ->
      let dirs = Directives.loop_directives cfg li j in
      if dirs.Directives.pipeline_ii <> None then
        match Memdep.iv_phi idx li j with
        | None -> ()
        | Some iv ->
            let header = Sym.name (Cfg.label cfg l.Loop_info.header) in
            List.iter
              (fun (acc : Memdep.access) ->
                match (acc.Memdep.acc_subs, find_array acc.Memdep.acc_array)
                with
                | Some forms, Some a
                  when a.Directives.partition_factor > 1
                       && a.Directives.partition_kind <> "complete" -> (
                    (* forms.(0) walks the pointer; partition dims are
                       1-based into the array shape *)
                    let fi = a.Directives.partition_dim in
                    match List.nth_opt forms fi with
                    | None -> ()
                    | Some form ->
                        let c = Alias.coeff_of form iv in
                        let flag msg hint =
                          let key = (a.Directives.aname, header, msg) in
                          if not (Hashtbl.mem seen key) then begin
                            Hashtbl.add seen key ();
                            Diag.add buf
                              (Diag.warning ~func:f.Lmodule.fname
                                 ~location:header ~rule:"HLS003" ~hint "%s"
                                 msg)
                          end
                        in
                        if
                          a.Directives.partition_kind = "cyclic"
                          && c mod a.Directives.partition_factor = 0
                        then
                          flag
                            (Printf.sprintf
                               "cyclic partition (factor %d, dim %d) of %s: \
                                access stride %d maps every iteration to one \
                                bank"
                               a.Directives.partition_factor
                               a.Directives.partition_dim a.Directives.aname
                               c)
                            "choose a factor coprime to the stride, or \
                             partition a different dimension"
                        else if a.Directives.partition_kind = "block" then begin
                          let total =
                            Option.value ~default:0
                              (List.nth_opt a.Directives.dims
                                 (a.Directives.partition_dim - 1))
                          in
                          let bsize =
                            max 1 (total / a.Directives.partition_factor)
                          in
                          if c <> 0 && abs c < bsize then
                            flag
                              (Printf.sprintf
                                 "block partition (factor %d, dim %d) of %s: \
                                  stride-%d accesses stay in one block bank"
                                 a.Directives.partition_factor
                                 a.Directives.partition_dim a.Directives.aname
                                 c)
                              "use cyclic partitioning for unit-stride \
                               pipelined access"
                        end)
                | _ -> ())
              (Memdep.accesses_in idx li j))
    li.Loop_info.loops

(** HLS004 — dead stores to local arrays. *)
let lint_dead_stores (buf : Diag.buffer) ~am (f : Lmodule.func) (cfg : Cfg.t) =
  List.iter
    (fun (ds : Dataflow.dead_store) ->
      Diag.add buf
        (Diag.warning ~func:f.Lmodule.fname
           ~location:(Sym.name (Cfg.label cfg ds.Dataflow.ds_block))
           ~rule:"HLS004"
           ~hint:"remove the store, or the whole array if it is write-only"
           "store to local array %%%s is never read (instruction %d)"
           ds.Dataflow.ds_array ds.Dataflow.ds_index))
    (Dataflow.dead_stores ~am cfg)

(** HLS005 — unused parameters of the top function: no operand of
    any row reads them. *)
let lint_unused_params (buf : Diag.buffer) (f : Lmodule.func) (idx : Findex.t)
    =
  let used = Array.make (List.length f.Lmodule.params) false in
  for k = 0 to Findex.n_instrs idx - 1 do
    List.iter
      (function
        | Lvalue.Reg (r, _) -> (
            match Findex.def idx r with
            | Some (Findex.Param i) -> used.(i) <- true
            | _ -> ())
        | _ -> ())
      (Linstr.operands (Findex.instr idx k))
  done;
  List.iteri
    (fun i (p : Lmodule.param) ->
      if not used.(i) then
        Diag.add buf
          (Diag.warning ~func:f.Lmodule.fname ~location:p.Lmodule.pname
             ~rule:"HLS005"
             ~hint:"drop the parameter or wire it into the datapath"
             "top-function parameter %%%s is never used (dangling interface \
              port)"
             p.Lmodule.pname))
    f.Lmodule.params

(** HLS008 — a partitioned array reached through a pointer the alias
    oracle cannot attribute.  Banking assumes every access to the
    array is visible as such; a [May_alias] access (an unresolvable
    pointer that might land in the array) makes the bank assignment
    unprovable, so the partition directive buys nothing. *)
let lint_aliased_partitions (buf : Diag.buffer) (f : Lmodule.func)
    (idx : Findex.t) =
  let partitioned =
    List.filter
      (fun (p : Lmodule.param) ->
        match List.assoc_opt "fpga.partition.factor" p.Lmodule.pattrs with
        | Some s -> Option.value ~default:1 (int_of_string_opt s) > 1
        | None -> false)
      f.Lmodule.params
  in
  List.iter
    (fun ((p : Lmodule.param), q) ->
      Diag.add buf
        (Diag.warning ~func:f.Lmodule.fname ~location:p.Lmodule.pname
           ~rule:"HLS008"
           ~hint:
             "make every access a direct getelementptr on the array, or \
              drop the partition directive"
           "partition directive on %%%s cannot be honoured: access through \
            %s may alias the array but is not attributable to a bank"
           p.Lmodule.pname (Lvalue.to_string q)))
    (Alias.may_aliased_params idx f partitioned)

(** HLS009 — cross-function write-write conflicts on module globals,
    straight from the {!Llvmir.Parsafe} verdict. *)
let lint_global_conflicts (buf : Diag.buffer) (m : Lmodule.t)
    (eff : Effects.t) =
  match Parsafe.check ~effects:eff m with
  | Parsafe.Safe -> ()
  | Parsafe.Unsafe cs ->
      List.iter
        (function
          | Parsafe.Global_write_write (fa, fb, g) ->
              Diag.add buf
                (Diag.warning ~func:fa ~location:("@" ^ g) ~rule:"HLS009"
                   ~hint:
                     "route the shared state through an explicit port, or \
                      merge the writers"
                   "functions @%s and @%s both write global @%s; the design \
                    cannot be parallelized or dataflow-scheduled across them"
                   fa fb g)
          | Parsafe.Global_read_write _ | Parsafe.Unknown_effects _ -> ())
        cs

(** HLS010 — the top function calls into unknown effects: every
    downstream analysis (scheduling, dependence, partitioning) has to
    assume the worst about the whole design. *)
let lint_unknown_callees (buf : Diag.buffer) (eff : Effects.t)
    (f : Lmodule.func) =
  let seen = Hashtbl.create 4 in
  Lmodule.fold_insts
    (fun () (i : Linstr.t) ->
      match i.op with
      | Call { callee; _ }
        when (not (Effects.is_inert_callee callee))
             && not (Hashtbl.mem seen callee) -> (
          Hashtbl.add seen callee ();
          let warn why =
            Diag.add buf
              (Diag.warning ~func:f.Lmodule.fname ~location:callee
                 ~rule:"HLS010"
                 ~hint:
                   "define the callee in the module or replace the call \
                    with an HLS marker intrinsic"
                 "top function calls @%s %s; its memory effects are unknown"
                 callee why)
          in
          match Effects.footprint eff callee with
          | None -> warn "which is not defined in the module"
          | Some fp when Effects.closed fp -> ()
          | Some fp ->
              warn
                (Printf.sprintf "whose footprint is open (%s)"
                   (String.concat ", " fp.Effects.fp_unknown)))
      | _ -> ())
    () f

(** HLS006 — unreachable blocks. *)
let lint_unreachable (buf : Diag.buffer) (f : Lmodule.func) (cfg : Cfg.t) =
  List.iter
    (fun b ->
      Diag.add buf
        (Diag.warning ~func:f.Lmodule.fname
           ~location:(Sym.name (Cfg.label cfg b))
           ~rule:"HLS006" ~hint:"delete the block"
           "basic block %%%s is unreachable from entry"
           (Sym.name (Cfg.label cfg b))))
    (Cfg.unreachable_blocks cfg)

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

(** Run every rule over [m] and return the accumulated diagnostics.

    [top] names the function checked for interface-level rules
    (HLS005); it defaults to the single function when [m] has exactly
    one.  [only] keeps just the listed rule IDs.  [werror] promotes
    warnings to errors.  A verifier failure yields a single [HLS000]
    error for the offending function and skips its other rules.
    Every rule reads its analyses from [am] (a fresh manager without
    it): under the manager that produced [m], the adaptor's indexes
    are hits and functions it already verified are not re-verified. *)
let run ?(only : string list option) ?(werror = false) ?(top : string option)
    ?(am = Analysis.create ()) (m : Lmodule.t) : Diag.t list =
  let buf = Diag.create () in
  let top_name =
    match top with
    | Some t -> Some t
    | None -> (
        match m.Lmodule.funcs with
        | [ f ] -> Some f.Lmodule.fname
        | _ -> None)
  in
  (try Diag.add_all buf (Adaptor.Compat.to_diagnostics (Adaptor.Compat.check m))
   with Support.Err.Compile_error e ->
     Diag.add buf (Diag.of_err ~rule:"HLS000" e));
  let eff =
    try
      let e = Analysis.effects ~am m in
      lint_global_conflicts buf m e;
      Some e
    with Support.Err.Compile_error e ->
      Diag.add buf (Diag.of_err ~rule:"HLS000" e);
      None
  in
  List.iter
    (fun (f : Lmodule.func) ->
      try
        Lverifier.verify_func ~am m f;
        let idx = Analysis.findex ~am f and cfg = Analysis.cfg ~am f in
        let li = Analysis.loop_info ~am f in
        lint_loops buf f idx li;
        lint_partitions buf f idx li;
        lint_dead_stores buf ~am f cfg;
        lint_unreachable buf f cfg;
        lint_aliased_partitions buf f idx;
        if top_name = Some f.Lmodule.fname then begin
          lint_unused_params buf f idx;
          Option.iter (fun e -> lint_unknown_callees buf e f) eff
        end
      with Support.Err.Compile_error e ->
        Diag.add buf (Diag.of_err ~rule:"HLS000" e))
    m.Lmodule.funcs;
  let ds = Diag.contents buf in
  let ds =
    match only with
    | None -> ds
    | Some rules -> List.filter (fun d -> List.mem d.Diag.rule rules) ds
  in
  if werror then Diag.promote_warnings ds else ds
