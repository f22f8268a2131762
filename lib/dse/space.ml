(** First-class design-space description, derived from kernel metadata.

    Instead of a hand-written candidate list, the axes come from the
    kernel's own IR (built once, directive-free):

    - {b pipeline II} — fixed ladder [0 (off); 1; 2; 4; 8];
    - {b unroll} — powers of two up to and including the first one
      that covers the innermost trip count (so full unroll is always
      on the axis, even for non-power-of-two trips);
    - {b strategy} — pipeline the innermost loop ([Inner]) or the
      second-innermost with the innermost fully unrolled ([Middle]);
    - {b partitioning} — one axis per {e hot array}: a memref argument
      indexed by an innermost induction variable in some load or
      store.  The partitioned dimension is where that variable appears
      in the subscript (1-based, clamped to the array's rank), and the
      factor ladder is the powers of two up to the first one covering
      that dimension's extent (complete partitioning included).

    A {!config} is one point; {!canonical} collapses aliases (under
    [Middle] the innermost loop is fully unrolled and the middle loop
    pipelined regardless of the unroll/II axes), so configs that build
    identical IR share one canonical form and one {!describe} label —
    the deduplication key of the whole search. *)

module K = Workloads.Kernels
module B = Hls_backend.Backend
module Ir = Mhir.Ir
module L = Llvmir

type partition_axis = {
  pa_array : string;  (** argument name *)
  pa_dim : int;  (** 1-based partitioned dimension *)
  pa_factors : int list;  (** ascending, starts with 1 = off *)
}

type t = {
  sp_strategies : K.strategy list;
  sp_scheds : B.sched list;  (** estimation backends on the axis *)
  sp_iis : int list;  (** ascending; 0 = no pipeline directive *)
  sp_unrolls : int list;  (** ascending; 1 = off *)
  sp_partitions : partition_axis list;  (** sorted by array name *)
}

type config = {
  c_strategy : K.strategy;
  c_sched : B.sched;  (** which backend estimates this point *)
  c_ii : int;  (** 0 = off *)
  c_unroll : int;  (** 1 = off *)
  c_parts : (string * int) list;
      (** array → factor (1 = off); same order as [sp_partitions] *)
}

(* ------------------------------------------------------------------ *)
(* Derivation from kernel IR                                          *)
(* ------------------------------------------------------------------ *)

let const_of_map_attr attrs key =
  match List.assoc_opt key attrs with
  | Some (Mhir.Attr.Map m) -> Mhir.Affine_map.as_constant m
  | _ -> None

let int_attr attrs key =
  match List.assoc_opt key attrs with
  | Some (Mhir.Attr.Int n) -> Some n
  | _ -> None

let trip_count (op : Ir.op) : int option =
  match
    ( const_of_map_attr op.Ir.attrs "lower_map",
      const_of_map_attr op.Ir.attrs "upper_map",
      int_attr op.Ir.attrs "step" )
  with
  | Some lb, Some ub, Some step when step > 0 ->
      Some (max 0 ((ub - lb + step - 1) / step))
  | _ -> None

let is_for (op : Ir.op) = op.Ir.name = "affine.for"

let has_nested_for (op : Ir.op) =
  let found = ref false in
  List.iter
    (Ir.walk_region (fun o -> if is_for o then found := true))
    op.Ir.regions;
  !found

(** Induction variable of an [affine.for]: first entry-block param. *)
let induction_var (op : Ir.op) : Ir.value option =
  match op.Ir.regions with
  | [ r ] -> (
      match (Ir.entry_block r).Ir.params with
      | iv :: _ -> Some iv
      | [] -> None)
  | _ -> None

(** Powers of two up to the first one >= [limit]: a factor beyond that
    is already a full unroll / complete partition, so larger rungs add
    no distinct designs. *)
let pow2_ladder ~limit =
  List.filter (fun f -> f < 2 * max 1 limit) [ 1; 2; 4; 8 ]

(** Largest axis value not above [v] (axes are ascending and start at
    1): projects off-axis legacy values onto the space.  A request at
    or above the top rung lands on the top rung, which the ladder rule
    above guarantees is semantically a full unroll / complete
    partition. *)
let clamp_to (axis : int list) (v : int) : int =
  match List.rev (List.filter (fun x -> x <= v) axis) with
  | x :: _ -> x
  | [] -> List.hd axis

let find_index p xs =
  let rec go i = function
    | [] -> None
    | x :: rest -> if p x then Some i else go (i + 1) rest
  in
  go 0 xs

(** Kernel arguments whose backing storage some access in the adapted
    LLVM IR may alias without being attributable to them.  For such an
    array the banking proof behind a partition directive fails (lint
    HLS008 flags exactly this), so partitioning it cannot pay off and
    its axis is dropped from the space.

    The check runs on the {e adapted} IR ({!Flow.direct_ir_frontend}):
    raw modern lowering still reaches arrays through descriptor
    aggregates, which the alias oracle rightly calls unresolvable —
    every axis would be dropped.  A frontend failure keeps all axes:
    the DSE jobs will surface the real diagnostics. *)
let may_aliased_arrays (kernel : K.kernel) : string list =
  let am = L.Analysis.create () in
  match Flow.direct_ir_frontend ~am (kernel.K.build K.no_directives) with
  | Error _ -> []
  | Ok (lm, _, _) ->
      let kernel_args = List.map fst kernel.K.args in
      List.concat_map
        (fun (f : L.Lmodule.func) ->
          let args =
            List.filter
              (fun (p : L.Lmodule.param) ->
                List.mem p.L.Lmodule.pname kernel_args)
              f.L.Lmodule.params
          in
          List.map
            (fun ((p : L.Lmodule.param), _) -> p.L.Lmodule.pname)
            (L.Alias.may_aliased_params (L.Analysis.findex ~am f) f args))
        lm.L.Lmodule.funcs
      |> List.sort_uniq compare

(** Derive the space for a kernel by walking its directive-free IR.
    All functions of the module are walked (kernels like [mmcall] do
    their array accesses in a helper), and accesses are attributed to
    the kernel's declared arguments by name.

    [scheds] is the estimation-backend axis; the default keeps the
    historical static-only space (same size, same labels, same
    frontier bytes). *)
let of_kernel ?(scheds = [ B.Static ]) (kernel : K.kernel) : t =
  let m = kernel.K.build K.no_directives in
  let kernel_args = List.map fst kernel.K.args in
  (* innermost loops and their induction variables, module-wide *)
  let inner_trips = ref [] in
  let inner_ivs = ref [] in
  List.iter
    (Ir.walk_func (fun op ->
         if is_for op && not (has_nested_for op) then begin
           (match trip_count op with
           | Some n when n > 0 -> inner_trips := n :: !inner_trips
           | _ -> ());
           match induction_var op with
           | Some iv -> inner_ivs := iv.Ir.id :: !inner_ivs
           | None -> ()
         end))
    m.Ir.funcs;
  let inner_trip =
    match !inner_trips with [] -> 1 | ts -> List.fold_left min max_int ts
  in
  let is_inner_iv (v : Ir.value) = List.mem v.Ir.id !inner_ivs in
  (* hot arrays: memref args subscripted by an innermost iv *)
  let hot : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (fn : Ir.func) ->
      let arg_of_id =
        List.filter_map
          (fun (a : Ir.value) ->
            match a.Ir.ty with
            | Mhir.Types.Memref (shape, _)
              when List.mem a.Ir.hint kernel_args ->
                Some (a.Ir.id, (a.Ir.hint, shape))
            | _ -> None)
          fn.Ir.args
      in
      let record_access (mem : Ir.value) (idxs : Ir.value list) =
        match List.assoc_opt mem.Ir.id arg_of_id with
        | None -> ()
        | Some (name, shape) -> (
            if not (Hashtbl.mem hot name) then
              match
                find_index (fun (v : Ir.value) -> is_inner_iv v) idxs
              with
              | Some pos ->
                  let rank = List.length shape in
                  let dim = min (pos + 1) rank in
                  Hashtbl.add hot name (dim, List.nth shape (dim - 1))
              | None -> ())
      in
      Ir.walk_func
        (fun op ->
          match (op.Ir.name, op.Ir.operands) with
          | "affine.load", mem :: idxs -> record_access mem idxs
          | "affine.store", _ :: mem :: idxs -> record_access mem idxs
          | _ -> ())
        fn)
    m.Ir.funcs;
  let aliased = may_aliased_arrays kernel in
  let sp_partitions =
    Hashtbl.fold
      (fun name (dim, dim_size) acc ->
        if List.mem name aliased then acc
        else
          {
            pa_array = name;
            pa_dim = dim;
            pa_factors = pow2_ladder ~limit:dim_size;
          }
          :: acc)
      hot []
    |> List.sort (fun a b -> compare a.pa_array b.pa_array)
  in
  let scheds =
    match List.sort_uniq compare scheds with [] -> [ B.Static ] | ss -> ss
  in
  {
    sp_strategies = K.all_strategies;
    sp_scheds = scheds;
    sp_iis = [ 0; 1; 2; 4; 8 ];
    sp_unrolls = pow2_ladder ~limit:inner_trip;
    sp_partitions;
  }

(* ------------------------------------------------------------------ *)
(* Configs                                                            *)
(* ------------------------------------------------------------------ *)

(** Collapse aliases to one representative: under [Middle] the
    innermost loop is fully unrolled whatever the unroll axis says, and
    a missing II defaults to 1 — so unroll pins to 1 and II to at
    least 1.  Partition entries are sorted by array name. *)
let canonical (c : config) : config =
  let c_parts =
    List.sort (fun (a, _) (b, _) -> compare a b) c.c_parts
  in
  match c.c_strategy with
  | K.Inner -> { c with c_parts }
  | K.Middle -> { c with c_parts; c_unroll = 1; c_ii = max c.c_ii 1 }

(** Canonical, injective label — the dedup key and job label.  The
    statically-scheduled half of the space keeps the historical labels
    exactly; dynamic points carry a ["-dyn"] suffix. *)
let describe (c : config) : string =
  let c = canonical c in
  Printf.sprintf "%s-ii%d-u%d%s%s"
    (K.strategy_name c.c_strategy)
    c.c_ii c.c_unroll
    (String.concat ""
       (List.map (fun (a, f) -> Printf.sprintf "-%s%d" a f) c.c_parts))
    (match c.c_sched with B.Static -> "" | B.Dynamic -> "-dyn")

(* Canonical configs in label order, one per label; each label is
   formatted once. *)
let sort_by_label (cs : config list) : config list =
  List.map (fun c -> (describe c, c)) cs
  |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)
  |> List.map snd

let to_directives (sp : t) (c : config) : K.directives =
  let c = canonical c in
  {
    K.pipeline_ii = (if c.c_ii = 0 then None else Some c.c_ii);
    K.unroll = (if c.c_unroll = 1 then None else Some c.c_unroll);
    K.strategy = c.c_strategy;
    K.partitions =
      List.filter_map
        (fun ax ->
          match List.assoc_opt ax.pa_array c.c_parts with
          | Some f when f > 1 -> Some (ax.pa_array, "cyclic", f, ax.pa_dim)
          | _ -> None)
        sp.sp_partitions;
  }

let parts_all (sp : t) (f : int) : (string * int) list =
  List.map (fun ax -> (ax.pa_array, f)) sp.sp_partitions

(** The legacy fixed grid, expressed in this space: baseline, pipelined
    inner loop, inner + unroll 2/4, middle with full inner unroll, and
    middle + partition all hot arrays by 2/4/8.  Seeding the archive
    with these guarantees the search's frontier weakly dominates the
    old one.  Canonicalized and deduplicated. *)
let seeds (sp : t) : config list =
  let mk sched s ii u parts =
    canonical
      {
        c_strategy = s;
        c_sched = sched;
        c_ii = ii;
        c_unroll = clamp_to sp.sp_unrolls u;
        c_parts =
          List.map2
            (fun ax (a, f) -> (a, clamp_to ax.pa_factors f))
            sp.sp_partitions parts;
      }
  in
  let off = parts_all sp 1 in
  List.concat_map
    (fun sched ->
      [
        mk sched K.Inner 0 1 off;
        mk sched K.Inner 1 1 off;
        mk sched K.Inner 1 2 off;
        mk sched K.Inner 1 4 off;
        mk sched K.Middle 1 1 off;
        mk sched K.Middle 1 1 (parts_all sp 2);
        mk sched K.Middle 1 1 (parts_all sp 4);
        mk sched K.Middle 1 1 (parts_all sp 8);
      ])
    sp.sp_scheds
  |> sort_by_label

(** Values adjacent to [v] on an ascending axis ([v] itself excluded;
    works even when [v] is off-axis, e.g. for legacy seeds). *)
let adjacent (axis : int list) (v : int) : int list =
  let below = List.filter (fun x -> x < v) axis in
  let above = List.filter (fun x -> x > v) axis in
  (match List.rev below with [] -> [] | b :: _ -> [ b ])
  @ (match above with [] -> [] | a :: _ -> [ a ])

(** One-axis neighborhood of a config: strategy flip, backend flip
    (when the space has more than one on its axis), one II step, one
    unroll step, one factor step on one array.  Canonicalized,
    deduplicated, self excluded, sorted by {!describe}. *)
let neighbors (sp : t) (c : config) : config list =
  let c = canonical c in
  let flip =
    match c.c_strategy with K.Inner -> K.Middle | K.Middle -> K.Inner
  in
  let sched_moves =
    List.filter_map
      (fun s -> if s = c.c_sched then None else Some { c with c_sched = s })
      sp.sp_scheds
  in
  let moves =
    sched_moves
    @ ({ c with c_strategy = flip }
      :: List.map (fun ii -> { c with c_ii = ii }) (adjacent sp.sp_iis c.c_ii))
    @ List.map
        (fun u -> { c with c_unroll = u })
        (adjacent sp.sp_unrolls c.c_unroll)
    @ List.concat_map
        (fun ax ->
          let cur =
            Option.value ~default:1 (List.assoc_opt ax.pa_array c.c_parts)
          in
          List.map
            (fun f ->
              {
                c with
                c_parts =
                  List.map
                    (fun (a, g) ->
                      if a = ax.pa_array then (a, f) else (a, g))
                    c.c_parts;
              })
            (adjacent ax.pa_factors cur))
        sp.sp_partitions
  in
  let self = describe c in
  List.filter_map
    (fun n ->
      let n = canonical n in
      let label = describe n in
      if label = self then None else Some (label, n))
    moves
  |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)
  |> List.map snd

(** Every point of the space (canonical forms, sorted).  Exponential in
    the number of hot arrays — fine at benchmark scale; the search
    itself never calls this, only tests and benchmarks do. *)
let enumerate (sp : t) : config list =
  let parts_combos =
    List.fold_left
      (fun acc ax ->
        List.concat_map
          (fun parts ->
            List.map (fun f -> (ax.pa_array, f) :: parts) ax.pa_factors)
          acc)
      [ [] ] sp.sp_partitions
    |> List.map List.rev
  in
  List.concat_map
    (fun sched ->
      List.concat_map
        (fun s ->
          List.concat_map
            (fun ii ->
              List.concat_map
                (fun u ->
                  List.map
                    (fun parts ->
                      canonical
                        {
                          c_strategy = s;
                          c_sched = sched;
                          c_ii = ii;
                          c_unroll = u;
                          c_parts = parts;
                        })
                    parts_combos)
                sp.sp_unrolls)
            sp.sp_iis)
        sp.sp_strategies)
    sp.sp_scheds
  |> sort_by_label

(** Number of distinct (canonical) points in the space, counted from
    the axes: [Inner] points are every II with every unroll, [Middle]
    points every distinct [max 1 ii] (its unroll pins to 1), and each
    is paired with every backend and partition factor. *)
let size (sp : t) : int =
  let distinct xs = List.length (List.sort_uniq compare xs) in
  let per_strategy = function
    | K.Inner -> distinct sp.sp_iis * distinct sp.sp_unrolls
    | K.Middle ->
        distinct (List.map (max 1) sp.sp_iis) * min 1 (distinct sp.sp_unrolls)
  in
  distinct sp.sp_scheds
  * List.fold_left
      (fun acc ax -> acc * distinct ax.pa_factors)
      1 sp.sp_partitions
  * List.fold_left
      (fun acc s -> acc + per_strategy s)
      0
      (List.sort_uniq compare sp.sp_strategies)
