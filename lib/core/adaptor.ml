(** The MLIR HLS adaptor for LLVM IR — pipeline driver.

    Takes LLVM IR as produced by the modern MLIR lowering and emits
    HLS-readable IR: no opaque pointers, no memref descriptors, no
    modern intrinsics, directives carried by [_ssdm_op_Spec*] markers,
    interfaces annotated on the top function.  {!Compat.check} must
    return no issues on the output (asserted when the pipeline is
    strict). *)

(* Re-export the pass modules: this file is the library's root module,
   so siblings are only reachable through these aliases. *)
module Hls_names = Hls_names
module Legalize_intrinsics = Legalize_intrinsics
module Eliminate_descriptors = Eliminate_descriptors
module Typed_pointers = Typed_pointers
module Canonicalize_geps = Canonicalize_geps
module Translate_metadata = Translate_metadata
module Interfaces = Interfaces
module Compat = Compat

type report = {
  intrinsics : Legalize_intrinsics.stats;
  descriptors : Eliminate_descriptors.stats;
  pointers : Typed_pointers.stats;
  geps : Canonicalize_geps.stats;
  metadata : Translate_metadata.stats;
  interfaces : Interfaces.stats;
  issues_before : Compat.issue list;
  issues_after : Compat.issue list;
  diagnostics : Support.Diag.t list;
      (** [issues_after] as accumulated diagnostics (HLS10x rules) *)
}

let fresh_report () =
  {
    intrinsics = Legalize_intrinsics.fresh_stats ();
    descriptors = Eliminate_descriptors.fresh_stats ();
    pointers = Typed_pointers.fresh_stats ();
    geps = Canonicalize_geps.fresh_stats ();
    metadata = Translate_metadata.fresh_stats ();
    interfaces = Interfaces.fresh_stats ();
    issues_before = [];
    issues_after = [];
    diagnostics = [];
  }

(** The adaptor's pass pipeline as a first-class, ordered, named value
    — replaces the old record of nine booleans.  A pipeline is an
    ordered list of named passes (each individually toggleable) plus
    the two driver options ([top], [strict]).  Pipelines can be
    described canonically ({!describe}), which the batch driver uses as
    part of its cache key, and built from user-supplied pass names
    ({!of_names}, {!set_enabled}) with unknown names reported as
    values, not exceptions. *)
module Pipeline = struct
  type pass = {
    pname : string;  (** stable pass name, e.g. ["typed-pointers"] *)
    enabled : bool;
    prun :
      report ->
      am:Llvmir.Analysis.t ->
      top:string option ->
      Llvmir.Lmodule.t ->
      Llvmir.Lmodule.t;
        (** the rewrite; updates the matching [report] stats in place.
            [am] is the analysis manager shared across the pipeline —
            a pass that indexes its {e input} queries it so the
            verifier's post-pass index is reused. *)
  }

  type t = {
    passes : pass list;  (** executed in list order *)
    top : string option;  (** top function for interface lowering *)
    strict : bool;  (** error if the output is not HLS-ready *)
  }

  let legalize_intrinsics =
    {
      pname = "legalize-intrinsics";
      enabled = true;
      prun =
        (fun r ~am ~top:_ m ->
          Legalize_intrinsics.run ~stats:r.intrinsics ~am m);
    }

  let eliminate_descriptors =
    {
      pname = "eliminate-descriptors";
      enabled = true;
      prun =
        (fun r ~am ~top:_ m ->
          Eliminate_descriptors.run ~stats:r.descriptors ~delinearize:true ~am
            m);
    }

  (** Variant of {!eliminate_descriptors} that keeps accesses on flat
      1-D views (no delinearization) — a distinct pass name so traces
      and cache keys distinguish it. *)
  let eliminate_descriptors_flat =
    {
      pname = "eliminate-descriptors-flat";
      enabled = true;
      prun =
        (fun r ~am ~top:_ m ->
          Eliminate_descriptors.run ~stats:r.descriptors ~delinearize:false ~am
            m);
    }

  let typed_pointers =
    {
      pname = "typed-pointers";
      enabled = true;
      prun = (fun r ~am:_ ~top:_ m -> Typed_pointers.run ~stats:r.pointers m);
    }

  let canonicalize_geps =
    {
      pname = "canonicalize-geps";
      enabled = true;
      prun = (fun r ~am ~top:_ m -> Canonicalize_geps.run ~stats:r.geps ~am m);
    }

  let translate_metadata =
    {
      pname = "translate-metadata";
      enabled = true;
      prun =
        (fun r ~am:_ ~top:_ m -> Translate_metadata.run ~stats:r.metadata m);
    }

  let lower_interfaces =
    {
      pname = "lower-interfaces";
      enabled = true;
      prun = (fun r ~am:_ ~top m -> Interfaces.run ~stats:r.interfaces ?top m);
    }

  (** Every constructible pass, in canonical order. *)
  let registry =
    [
      legalize_intrinsics;
      eliminate_descriptors;
      eliminate_descriptors_flat;
      typed_pointers;
      canonicalize_geps;
      translate_metadata;
      lower_interfaces;
    ]

  let known_names = List.map (fun p -> p.pname) registry
  let find_pass name = List.find_opt (fun p -> p.pname = name) registry

  (** The paper's full adaptor pipeline. *)
  let default =
    {
      passes =
        [
          legalize_intrinsics;
          eliminate_descriptors;
          typed_pointers;
          canonicalize_geps;
          translate_metadata;
          lower_interfaces;
        ];
      top = None;
      strict = true;
    }

  (** Ablation 1: skip descriptor elimination entirely.  The output
      still contains descriptor aggregates and opaque pointers, so the
      HLS middle-end {e rejects} it — the raw "syntax gap". *)
  let no_descriptor_elimination =
    {
      default with
      passes =
        List.map
          (fun p ->
            if p.pname = "eliminate-descriptors" then { p with enabled = false }
            else p)
          default.passes;
      strict = false;
    }

  (** Ablation 2: eliminate descriptors but keep accesses on flat 1-D
      views (no delinearization).  The output is accepted but the array
      shape is gone, so array-partition directives cannot take effect —
      the cost of losing "expression details". *)
  let flat_views =
    {
      default with
      passes =
        List.map
          (fun p ->
            if p.pname = "eliminate-descriptors" then eliminate_descriptors_flat
            else p)
          default.passes;
    }

  let with_top top t = { t with top }
  let relaxed t = { t with strict = false }

  (** Enabled pass names, in execution order. *)
  let enabled_names t =
    List.filter_map (fun p -> if p.enabled then Some p.pname else None) t.passes

  (** Canonical description of the whole pipeline — stable across runs,
      used for cache keying and trace metadata.  Disabled passes are
      kept (as [name:off]) because order matters. *)
  let describe (t : t) : string =
    Printf.sprintf "passes=%s;top=%s;strict=%b"
      (String.concat ","
         (List.map
            (fun p -> p.pname ^ (if p.enabled then ":on" else ":off"))
            t.passes))
      (Option.value ~default:"-" t.top)
      t.strict

  let unknown_pass_diag name =
    Support.Diag.error ~rule:"HLS900"
      ~hint:("known passes: " ^ String.concat ", " known_names)
      "unknown adaptor pass '%s'" name

  (** Toggle one named pass.  Unknown names are reported as an
      HLS-style diagnostic value, never an exception. *)
  let set_enabled (name : string) (enabled : bool) (t : t) :
      (t, Support.Diag.t) result =
    if not (List.exists (fun p -> p.pname = name) t.passes) then
      Error (unknown_pass_diag name)
    else
      Ok
        {
          t with
          passes =
            List.map
              (fun p -> if p.pname = name then { p with enabled } else p)
              t.passes;
        }

  let disable name t = set_enabled name false t

  (** Build a pipeline running exactly [names], in the given order. *)
  let of_names ?top ?(strict = true) (names : string list) :
      (t, Support.Diag.t) result =
    let rec build acc = function
      | [] -> Ok { passes = List.rev acc; top; strict }
      | n :: rest -> (
          match find_pass n with
          | Some p -> build (p :: acc) rest
          | None -> Error (unknown_pass_diag n))
    in
    build [] names
end

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

(** One enabled adaptor pass as a pass-manager pass, updating [r]'s
    stats as it runs.  Every adaptor pass rewrites instructions inside
    a fixed block skeleton — labels, order and terminator targets
    survive — so CFG-shaped analyses rebase across each step exactly as
    in the LLVM cleanup pipeline.  The rewrites rebuild every function;
    restoring physical identity on the unchanged ones lets the shared
    manager keep their analyses and the verifier skip them. *)
let manager_pass (r : report) ~top (p : Pipeline.pass) : Llvmir.Pass.pass =
  {
    Llvmir.Pass.name = p.Pipeline.pname;
    preserves =
      [ Llvmir.Analysis.Cfg; Llvmir.Analysis.Dominance; Llvmir.Analysis.Loop_info ];
    body =
      Llvmir.Pass.Whole_module
        (fun am m ->
          Llvmir.Lmodule.share_unchanged ~prev:m (p.Pipeline.prun r ~am ~top m));
  }

(** Run the adaptor pipeline.  Returns [Ok (module, report)], or — in
    strict mode, when error-severity compatibility issues remain —
    [Error diagnostics] with the {e complete} accumulated list.  No
    exception escapes; converting diagnostics to {!Support.Diag.Failed}
    is the CLI boundary's job (or use {!run_exn}).

    The enabled passes run through {!Llvmir.Pass.run_pipeline}, so
    [?trace] receives one {!Support.Tracing.event} per executed pass
    (stage ["adaptor"]) plus the analysis queries, and the final module
    is verified once rather than after every pass.  [?am] is the
    compile job's analysis manager (see {!Llvmir.Pass.run_pipeline}). *)
let run ?(pipeline = Pipeline.default) ?trace ?am (m : Llvmir.Lmodule.t) :
    (Llvmir.Lmodule.t * report, Support.Diag.t list) result =
  let r = fresh_report () in
  let issues_before = Compat.check m in
  let passes =
    List.filter_map
      (fun p ->
        if p.Pipeline.enabled then
          Some (manager_pass r ~top:pipeline.Pipeline.top p)
        else None)
      pipeline.Pipeline.passes
  in
  let m, _ = Llvmir.Pass.run_pipeline ?trace ~stage:"adaptor" ?am passes m in
  let issues_after = Compat.check m in
  let diagnostics = Compat.to_diagnostics issues_after in
  let report = { r with issues_before; issues_after; diagnostics } in
  (* Strict mode gates on {e error}-severity issues only (warnings such
     as untranslated loop metadata lose directives but still compile),
     and reports the complete accumulated list — not just the first. *)
  let blocking =
    List.filter
      (fun (i : Compat.issue) ->
        Compat.issue_severity i.Compat.kind = Support.Err.Error)
      issues_after
  in
  if pipeline.Pipeline.strict && blocking <> [] then Error diagnostics
  else Ok (m, report)

(** Exception-raising convenience for process boundaries: raises
    {!Support.Diag.Failed} where {!run} returns [Error]. *)
let run_exn ?pipeline ?trace (m : Llvmir.Lmodule.t) :
    Llvmir.Lmodule.t * report =
  match run ?pipeline ?trace m with
  | Ok x -> x
  | Error ds -> raise (Support.Diag.Failed ds)

let report_to_string (r : report) =
  let b = Buffer.create 256 in
  Buffer.add_string b "=== MLIR HLS Adaptor report ===\n";
  let count sev issues =
    List.length
      (List.filter
         (fun (i : Compat.issue) -> Compat.issue_severity i.Compat.kind = sev)
         issues)
  in
  Buffer.add_string b
    (Printf.sprintf
       "compat issues: %d before -> %d after (%d errors, %d warnings)\n"
       (List.length r.issues_before)
       (List.length r.issues_after)
       (count Support.Err.Error r.issues_after)
       (count Support.Err.Warning r.issues_after));
  List.iter
    (fun (k, n) -> Buffer.add_string b (Printf.sprintf "  before %-18s %d\n" k n))
    (Compat.summarize r.issues_before);
  List.iter
    (fun i ->
      Buffer.add_string b ("  after  " ^ Compat.issue_to_string i ^ "\n"))
    r.issues_after;
  Buffer.add_string b
    (Printf.sprintf
       "intrinsics: %d min/max, %d fmuladd split, %d dropped, %d freezes\n"
       r.intrinsics.Legalize_intrinsics.minmax
       r.intrinsics.Legalize_intrinsics.fmuladd
       r.intrinsics.Legalize_intrinsics.dropped
       r.intrinsics.Legalize_intrinsics.freezes);
  Buffer.add_string b
    (Printf.sprintf
       "descriptors: %d eliminated, %d GEPs delinearized, %d flat fallbacks\n"
       r.descriptors.Eliminate_descriptors.descriptors
       r.descriptors.Eliminate_descriptors.delinearized
       r.descriptors.Eliminate_descriptors.flat_fallback);
  Buffer.add_string b
    (Printf.sprintf "pointers: %d typed, %d bitcasts, %d defaulted\n"
       r.pointers.Typed_pointers.typed r.pointers.Typed_pointers.bitcasts
       r.pointers.Typed_pointers.defaulted);
  Buffer.add_string b
    (Printf.sprintf "geps: %d merged, %d indices widened\n"
       r.geps.Canonicalize_geps.merged r.geps.Canonicalize_geps.widened);
  Buffer.add_string b
    (Printf.sprintf "metadata: %d loops, %d markers emitted\n"
       r.metadata.Translate_metadata.loops r.metadata.Translate_metadata.markers);
  Buffer.add_string b
    (Printf.sprintf "interfaces: %d annotated, %d partitions\n"
       r.interfaces.Interfaces.interfaces r.interfaces.Interfaces.partitions);
  Buffer.contents b
