(** Cross-layer differential equivalence oracle.

    Each test case is a random well-typed kernel ({!Spec}) plus random
    inputs.  The kernel is executed at up to four points of the stack
    on identical inputs:

    - {b mhir} — the reference: {!Mhir.Interp} on the module as built;
    - {b lower} — canonicalized, lowered to modern LLVM IR, cleaned up,
      then run on {!Llvmir.Linterp};
    - {b adapted} — the full Flow A front-end (cleanup + adaptor), same
      interpreter;
    - {b cpp} — the full Flow B front-end (HLS-C++ emission re-parsed
      by the mini-C front-end), same interpreter.

    Integer outputs and the scalar return must agree bit-exactly; float
    outputs within 2 ULP (all interpreters compute in double, so in
    practice they agree bit-exactly too).  On a mismatch a greedy
    shrinker minimizes the spec and a self-contained [.mlir] repro is
    emitted. *)

module I = Mhir.Interp
module L = Llvmir.Linterp

let fail fmt = Support.Err.fail ~pass:"difftest" fmt

(* ------------------------------------------------------------------ *)
(* Stages                                                             *)
(* ------------------------------------------------------------------ *)

type stage = Lower | Adapted | Cpp

let all_stages = [ Lower; Adapted; Cpp ]
let stage_name = function Lower -> "lower" | Adapted -> "adapted" | Cpp -> "cpp"

(* ------------------------------------------------------------------ *)
(* Cases                                                              *)
(* ------------------------------------------------------------------ *)

type case = {
  c_spec : Spec.t;
  c_ints : int array;  (** [max_dim²] input ints (i32-normalized) *)
  c_floats : float array;  (** [max_dim²] dyadic input floats *)
  c_n : int;  (** the scalar kernel argument *)
}

let input_slots = Spec.max_dim * Spec.max_dim

(** The case for [(seed, index)] — a pure function of both, so batches
    are reproducible for any [--jobs] and any scheduling order. *)
let gen_case ~seed ~index =
  let rng = Rng.case ~seed ~index in
  let spec = Spec.generate rng in
  let ints =
    Array.init input_slots (fun _ ->
        if Rng.bool rng then
          Support.Int_sem.norm ~width:32 (Rng.pick rng Spec.interesting)
        else Rng.i32 rng)
  in
  let floats = Array.init input_slots (fun _ -> Spec.dyadic rng) in
  let n = Support.Int_sem.norm ~width:32 (Rng.pick rng Spec.interesting) in
  {
    c_spec = spec;
    c_ints = ints;
    c_floats = floats;
    c_n = n;
  }

(* ------------------------------------------------------------------ *)
(* Executing one case at each stage                                   *)
(* ------------------------------------------------------------------ *)

type outputs = { o_ints : int array; o_floats : float array; o_ret : int }

let run_mhir (m : Mhir.Ir.modul) (c : case) : outputs =
  let dim = c.c_spec.Spec.dim in
  let size = dim * dim in
  let ibuf data =
    let b = I.alloc_buffer [| dim; dim |] Mhir.Types.I32 in
    Array.blit data 0 b.I.idata 0 size;
    b
  in
  let fbuf data =
    let b = I.alloc_buffer [| dim; dim |] Mhir.Types.F32 in
    Array.blit data 0 b.I.fdata 0 size;
    b
  in
  let a0 = ibuf c.c_ints in
  let a1 = I.alloc_buffer [| dim; dim |] Mhir.Types.I32 in
  let f0 = fbuf c.c_floats in
  let f1 = I.alloc_buffer [| dim; dim |] Mhir.Types.F32 in
  let rets =
    I.run_func m "kernel"
      [ I.Buf a0; I.Buf a1; I.Buf f0; I.Buf f1; I.Int c.c_n ]
  in
  let ret =
    match rets with
    | [ I.Int v ] -> v
    | _ -> fail "kernel: expected a single integer result"
  in
  {
    o_ints = Array.copy a1.I.idata;
    o_floats = Array.copy f1.I.fdata;
    o_ret = ret;
  }

let run_llvm (lm : Llvmir.Lmodule.t) (c : case) : outputs =
  let dim = c.c_spec.Spec.dim in
  let size = dim * dim in
  let st = L.create lm in
  let a0 = L.alloc_ints st size in
  L.write_ints st a0 (Array.sub c.c_ints 0 size);
  let a1 = L.alloc_ints st size in
  let f0 = L.alloc_floats st size in
  L.write_floats st f0 (Array.sub c.c_floats 0 size);
  let f1 = L.alloc_floats st size in
  let ret =
    match
      L.run st "kernel"
        [ L.RPtr a0; L.RPtr a1; L.RPtr f0; L.RPtr f1; L.RInt c.c_n ]
    with
    | Some (L.RInt v) -> v
    | _ -> fail "kernel: expected an integer return value"
  in
  {
    o_ints = L.read_ints st a1 size;
    o_floats = L.read_floats st f1 size;
    o_ret = ret;
  }

(** Produce the LLVM IR a stage hands to the interpreter.  [mutate] is
    a test hook: it sees every stage's module just before execution
    (used to demonstrate that the harness catches injected bugs). *)
let build_stage ?mutate stage (m : Mhir.Ir.modul) : Llvmir.Lmodule.t =
  let apply lm = match mutate with Some f -> f stage lm | None -> lm in
  match stage with
  | Lower ->
      let m = Mhir.Canonicalize.run m in
      let lm = Lowering.Lower.lower_module ~style:Lowering.Lower.modern m in
      Llvmir.Lverifier.verify_module lm;
      apply (Flow.llvm_cleanup lm)
  | Adapted -> (
      match Flow.direct_ir_frontend m with
      | Ok (lm, _report, _) -> apply lm
      | Error ds -> raise (Support.Diag.Failed ds))
  | Cpp ->
      let lm, _cpp, _ = Flow.hls_cpp_frontend m in
      apply lm

(* ------------------------------------------------------------------ *)
(* Comparison                                                         *)
(* ------------------------------------------------------------------ *)

let ulp_diff a b =
  let bits f =
    let x = Int64.bits_of_float f in
    (* order the bit patterns so adjacent floats differ by 1 *)
    if Int64.compare x 0L < 0 then Int64.sub Int64.min_int x else x
  in
  Int64.abs (Int64.sub (bits a) (bits b))

let float_eq a b =
  a = b
  || (Float.is_nan a && Float.is_nan b)
  || Int64.compare (ulp_diff a b) 2L <= 0

let compare_outputs (expected : outputs) (got : outputs) : string option =
  if expected.o_ret <> got.o_ret then
    Some
      (Printf.sprintf "return value: expected %d, got %d" expected.o_ret
         got.o_ret)
  else begin
    let bad = ref None in
    Array.iteri
      (fun k v ->
        if !bad = None && v <> got.o_ints.(k) then
          bad :=
            Some
              (Printf.sprintf "int output [%d]: expected %d, got %d" k v
                 got.o_ints.(k)))
      expected.o_ints;
    Array.iteri
      (fun k v ->
        if !bad = None && not (float_eq v got.o_floats.(k)) then
          bad :=
            Some
              (Printf.sprintf "float output [%d]: expected %h, got %h" k v
                 got.o_floats.(k)))
      expected.o_floats;
    !bad
  end

let describe_exn = function
  | Support.Err.Compile_error e -> Support.Err.to_string e
  | Support.Diag.Failed ds ->
      String.concat "; " (List.map Support.Diag.to_string ds)
  | e -> Printexc.to_string e

(** Run one case through the reference and every requested stage.
    [None] = all stages agree; [Some (stage, detail)] names the first
    diverging (or crashing) stage.  Never raises. *)
let run_case ?mutate ?(stages = all_stages) (c : case) :
    (string * string) option =
  match
    let m = Spec.build c.c_spec in
    Mhir.Verifier.verify_module m;
    (m, run_mhir m c)
  with
  | exception e -> Some ("mhir", describe_exn e)
  | m, expected ->
      List.fold_left
        (fun acc stage ->
          match acc with
          | Some _ -> acc
          | None -> (
              match run_llvm (build_stage ?mutate stage m) c with
              | exception e -> Some (stage_name stage, describe_exn e)
              | got -> (
                  match compare_outputs expected got with
                  | Some d -> Some (stage_name stage, d)
                  | None -> None)))
        None stages

(* ------------------------------------------------------------------ *)
(* Shrinking                                                          *)
(* ------------------------------------------------------------------ *)

(** Greedy first-improvement minimization: repeatedly move to the first
    {!Spec.shrink} candidate that still fails, within a fixed budget of
    oracle runs.  Inputs are kept fixed — input arrays are sized for
    [max_dim], so dimension shrinks reuse their prefix. *)
let shrink_case ?mutate ~stages (c : case) (first : string * string) :
    case * (string * string) =
  let budget = ref 200 in
  let rec go cur last =
    if !budget <= 0 then (cur, last)
    else begin
      let rec first_failing = function
        | [] -> None
        | spec :: rest ->
            if !budget <= 0 then None
            else begin
              decr budget;
              let cand = { cur with c_spec = spec } in
              match run_case ?mutate ~stages cand with
              | Some d -> Some (cand, d)
              | None -> first_failing rest
            end
      in
      match first_failing (Spec.shrink cur.c_spec) with
      | Some (cand, d) -> go cand d
      | None -> (cur, last)
    end
  in
  go c first

(* ------------------------------------------------------------------ *)
(* Failures and repro files                                           *)
(* ------------------------------------------------------------------ *)

type failure = {
  f_index : int;
  f_seed : int;
  f_case : case;  (** the minimized failing case *)
  f_orig_size : int;  (** spec size before shrinking *)
  f_stage : string;  (** "mhir", "lower", "adapted" or "cpp" *)
  f_detail : string;
}

(** Self-contained repro: a [//]-comment header (skipped by the mhir
    tokenizer) with the inputs, followed by the kernel in generic
    textual form — parseable with {!Mhir.Parser.parse_module}. *)
let repro_text (f : failure) : string =
  let c = f.f_case in
  let dim = c.c_spec.Spec.dim in
  let size = dim * dim in
  let join fmt arr =
    String.concat ", " (Array.to_list (Array.map fmt (Array.sub arr 0 size)))
  in
  let buf = Buffer.create 512 in
  Printf.bprintf buf "// mhlsc fuzz repro — minimal diverging kernel\n";
  Printf.bprintf buf "// seed: %d  case: %d\n" f.f_seed f.f_index;
  Printf.bprintf buf "// stage: %s\n" f.f_stage;
  Printf.bprintf buf "// mismatch: %s\n" f.f_detail;
  Printf.bprintf buf "// a0 = [%s]\n" (join string_of_int c.c_ints);
  Printf.bprintf buf "// f0 = [%s]\n" (join (Printf.sprintf "%h") c.c_floats);
  Printf.bprintf buf "// n = %d\n" c.c_n;
  Buffer.add_string buf
    (Mhir.Printer.module_to_string ~generic:true (Spec.build c.c_spec));
  Buffer.contents buf

let write_repro dir (f : failure) : string =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path =
    Filename.concat dir
      (Printf.sprintf "fuzz-seed%d-case%d.mlir" f.f_seed f.f_index)
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (repro_text f));
  path

(* ------------------------------------------------------------------ *)
(* Batch driver                                                       *)
(* ------------------------------------------------------------------ *)

type report = {
  r_seed : int;
  r_total : int;
  r_failures : failure list;
  r_files : string list;  (** repro files written, in failure order *)
}

(** Run [count] cases derived from [seed].  Case execution fans out on
    the driver's domain pool ([jobs]); results are deterministic for
    any [jobs] value.  Shrinking and repro emission run sequentially on
    the main domain afterwards, as does [trace] (one event per case, so
    hooks need not be thread-safe). *)
let run_batch ?(trace = Support.Tracing.null) ?mutate ?(stages = all_stages)
    ?(shrink = true) ?repro_dir ?(jobs = 1) ~seed ~count () : report =
  let idxs = List.init count (fun i -> i) in
  let results =
    Mhls_driver.Pool.map ~jobs
      (fun index ->
        let t0 = Support.Tracing.now () in
        let c = gen_case ~seed ~index in
        let r =
          match run_case ?mutate ~stages c with
          | r -> r
          | exception e -> Some ("harness", describe_exn e)
        in
        (index, c, r, Support.Tracing.now () -. t0))
      idxs
  in
  List.iter
    (fun (index, c, _r, dt) ->
      trace
        (Support.Tracing.event ~stage:"difftest"
           ~pass:(Printf.sprintf "case-%d" index)
           ~seconds:dt
           ~before:(Spec.size c.c_spec)
           ~after:(Spec.size c.c_spec)))
    results;
  let failures =
    List.filter_map
      (fun (index, c, r, _dt) ->
        match r with
        | None -> None
        | Some first ->
            let orig_size = Spec.size c.c_spec in
            let c, (st, d) =
              if shrink then shrink_case ?mutate ~stages c first
              else (c, first)
            in
            Some
              {
                f_index = index;
                f_seed = seed;
                f_case = c;
                f_orig_size = orig_size;
                f_stage = st;
                f_detail = d;
              })
      results
  in
  let files =
    match repro_dir with
    | None -> []
    | Some dir -> List.map (write_repro dir) failures
  in
  { r_seed = seed; r_total = count; r_failures = failures; r_files = files }

let render (r : report) : string =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "fuzz: %d cases, %d mismatching (seed %d)\n" r.r_total
    (List.length r.r_failures) r.r_seed;
  List.iter
    (fun f ->
      Printf.bprintf buf "  case %d [%s]: %s (spec %d -> %d nodes)\n" f.f_index
        f.f_stage f.f_detail f.f_orig_size
        (Spec.size f.f_case.c_spec))
    r.r_failures;
  List.iter (fun p -> Printf.bprintf buf "  repro: %s\n" p) r.r_files;
  Buffer.contents buf
