(** Output checks, run outside every timed region, once per distinct
    input.  The oracles are independent of the code path under test:

    - a compiled kernel's LLVM IR is interpreted ({!Flow.run_llvm})
      and compared with the kernel's hand-written OCaml reference
      ({!Flow.run_reference}) at the 1e-4 relative bound of
      {!Flow.compare_outputs};
    - a QoR report must equal the one an in-process {!Flow.run}
      produces for the same job;
    - an optimised module must compute what its input computes, on
      sampled functions under {!Llvmir.Linterp}.

    Printed LLVM IR from two compiles in one process is never compared:
    its phi order follows symbol-interning history. *)

module K = Workloads.Kernels
module D = Mhls_driver.Driver
module E = Hls_backend.Estimate

let references : (string, float array list) Hashtbl.t = Hashtbl.create 16

let reference (k : K.kernel) =
  match Hashtbl.find_opt references k.K.kname with
  | Some r -> r
  | None ->
      let r = Flow.run_reference k in
      Hashtbl.replace references k.K.kname r;
      r

(** Mismatches of interpreted outputs against the reference. *)
let check_outputs (k : K.kernel) ~(what : string) (got : float array list) :
    string list =
  snd (Flow.compare_outputs k ~what (reference k) got)

(** QoR equality on every field, and on the rendered report. *)
let check_qor ~(what : string) ~(want : E.report) (got : E.report) :
    string list =
  if want = got && Hls_backend.Report.render want = Hls_backend.Report.render got
  then []
  else [ what ^ ": QoR differs from the in-process Flow.run" ]

(** Interpreted IR already checked, by digest of its printed text: the
    same text has the same semantics whatever order it was built in. *)
let seen_ir : (Digest.t, unit) Hashtbl.t = Hashtbl.create 256

(** Re-run [j] in process; its QoR must equal [qor] and its IR must
    compute the reference outputs. *)
let check_job ~(pipeline : Adaptor.Pipeline.t) (j : D.job) (qor : E.report) :
    string list =
  match K.by_name j.D.kernel with
  | None -> [ j.D.label ^ ": unknown kernel" ]
  | Some k -> (
      match
        Flow.run ~directives:j.D.directives ~pipeline ~clock_ns:j.D.clock_ns
          ~sched:j.D.sched k j.D.flow
      with
      | Error ds ->
          [ j.D.label ^ ": Flow.run failed: "
            ^ String.concat "; " (List.map Support.Diag.to_string ds) ]
      | Ok r ->
          let q = check_qor ~what:j.D.label ~want:r.Flow.hls qor in
          let d = Digest.string (Llvmir.Lprinter.module_to_string r.Flow.llvm) in
          if Hashtbl.mem seen_ir d then q
          else (
            Hashtbl.replace seen_ir d ();
            q @ check_outputs k ~what:j.D.label (Flow.run_llvm k r.Flow.llvm)))

(* ------------------------------------------------------------------ *)
(* Bulk opt replies                                                   *)
(* ------------------------------------------------------------------ *)

(** The text of function [@name] in a printed module, if present. *)
let function_text (text : string) (name : string) : string option =
  let n = String.length text in
  match Inputs.find_sub text ("\ndefine void @" ^ name ^ "(") 0 with
  | None -> None
  | Some i ->
      let i = i + 1 in
      let rec close j =
        if j + 2 > n then n
        else if text.[j] = '\n' && text.[j + 1] = '}' then j + 2
        else close (j + 1)
      in
      let stop = close i in
      Some (String.sub text i (stop - i))

(** Run a synthetic kernel function on seeded [A]/[B] arrays and
    return [B]. *)
let run_synth_function (m : Llvmir.Lmodule.t) (name : string) ~(seed : int) :
    float array =
  let module I = Llvmir.Linterp in
  let st = I.create m in
  let a = I.alloc_floats st 64 and b = I.alloc_floats st 64 in
  let rs = Random.State.make [| seed; 11 |] in
  I.write_floats st a (Array.init 64 (fun _ -> Float.round (Random.State.float rs 64.0)));
  I.write_floats st b (Array.init 64 (fun i -> float_of_int (-i)));
  ignore (I.run st name [ I.RPtr a; I.RPtr b ]);
  I.read_floats st b 64

(** Interpret [samples] seeded functions of the input module and of
    the returned text; both must agree.  [input] is the parsed
    {!Inputs.bulk_source} module (a superset of the request's). *)
let check_opt ~(input : Llvmir.Lmodule.t) ~(n : int) ~(seed : int)
    ~(label : string) (reply : string) : string list =
  let st = Random.State.make [| seed; n; 12 |] in
  let defines = List.length (Inputs.find_all reply "\ndefine ") in
  let count_issue =
    if defines = n then []
    else [ Printf.sprintf "%s: reply has %d functions, want %d" label defines n ]
  in
  count_issue
  @ List.concat_map
      (fun _ ->
        let f = Printf.sprintf "k%d" (Random.State.int st n) in
        match function_text reply f with
        | None -> [ Printf.sprintf "%s: @%s missing from the reply" label f ]
        | Some body -> (
            match Llvmir.Lparser.parse_module body with
            | exception Support.Err.Compile_error _ ->
                [ Printf.sprintf "%s: @%s does not parse" label f ]
            | out ->
                let want = run_synth_function input f ~seed in
                let got = run_synth_function out f ~seed in
                if want = got then []
                else [ Printf.sprintf "%s: @%s computes a different result" label f ]))
      [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Injected-fault self-test                                           *)
(* ------------------------------------------------------------------ *)

(** The checks above must pass on a clean output, and fail when one
    output element or one QoR field is perturbed.  Returns the reasons
    the self-test failed (empty when it passed). *)
let self_test () : string list =
  let k = Option.get (K.by_name "fir") in
  let pipeline = Adaptor.Pipeline.default in
  let j = D.job ~kernel:k.K.kname K.pipelined in
  match Flow.run ~directives:j.D.directives ~pipeline k j.D.flow with
  | Error _ -> [ "self-test: fir does not compile" ]
  | Ok r ->
      let got = Flow.run_llvm k r.Flow.llvm in
      let out = List.hd k.K.outputs in
      let idx =
        let rec go i = function
          | (name, _) :: rest -> if name = out then i else go (i + 1) rest
          | [] -> 0
        in
        go 0 k.K.args
      in
      let perturbed =
        List.mapi
          (fun i a ->
            if i = idx then (
              let a = Array.copy a in
              a.(0) <- a.(0) +. 1.0 +. Float.abs a.(0);
              a)
            else a)
          got
      in
      let bad_qor = { r.Flow.hls with E.latency = r.Flow.hls.E.latency + 1 } in
      List.concat
        [
          (if check_outputs k ~what:"clean" got = [] then []
           else [ "self-test: clean outputs rejected" ]);
          (if check_qor ~what:"clean" ~want:r.Flow.hls r.Flow.hls = [] then []
           else [ "self-test: clean QoR rejected" ]);
          (if check_outputs k ~what:"perturbed" perturbed <> [] then []
           else [ "self-test: perturbed output element not caught" ]);
          (if check_qor ~what:"perturbed" ~want:r.Flow.hls bad_qor <> [] then []
           else [ "self-test: perturbed QoR field not caught" ]);
        ]
