(** Seeded inputs.  Every input set below is a pure function of the
    workload seed; the library under test only ever sees the generated
    jobs, searches and requests. *)

module K = Workloads.Kernels
module D = Mhls_driver.Driver
module Sp = Mhls_dse.Space
module P = Mhls_serve.Protocol
module B = Hls_backend.Backend

let rng seed salt = Random.State.make (Array.of_list (seed :: salt))

let shuffle st (a : 'a array) =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(** [k] distinct indices below [n], in draw order. *)
let sample st k n : int array =
  let a = Array.init n Fun.id in
  let k = min k n in
  for i = 0 to k - 1 do
    let j = i + Random.State.int st (n - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.sub a 0 k

(** A kernel with its own DSE space, enumerated. *)
type space = { kernel : K.kernel; sp : Sp.t; configs : Sp.config array }

let spaces () : space array =
  Array.of_list
    (List.map
       (fun k ->
         let sp = Sp.of_kernel k in
         { kernel = k; sp; configs = Array.of_list (Sp.enumerate sp) })
       (K.all ()))

let flows = [ Flow.Direct_ir; Flow.Hls_cpp ]

let job (s : space) flow sched (c : Sp.config) : D.job =
  D.job
    ~label:
      (String.concat "/"
         [ s.kernel.K.kname; Flow.flow_name flow; B.sched_name sched;
           Sp.describe c ])
    ~flow ~sched ~kernel:s.kernel.K.kname (Sp.to_directives s.sp c)

(** Index of the first occurrence of [pat] in [s] at or after [from]. *)
let find_sub (s : string) (pat : string) (from : int) : int option =
  let n = String.length s and m = String.length pat in
  let rec at i j = j = m || (s.[i + j] = pat.[j] && at i (j + 1)) in
  let rec go i =
    if i + m > n then None
    else if s.[i] = pat.[0] && at i 1 then Some i
    else go (i + 1)
  in
  go from

(** Every occurrence of [pat] in [s]. *)
let find_all (s : string) (pat : string) : int list =
  let rec go acc i =
    match find_sub s pat i with None -> List.rev acc | Some j -> go (j :: acc) (j + 1)
  in
  go [] 0

let digest_of (parts : string list) : string =
  Digest.to_hex (Digest.string (String.concat "\n" parts))

(* ------------------------------------------------------------------ *)
(* compile-mix                                                        *)
(* ------------------------------------------------------------------ *)

(** Configurations drawn per (kernel, flow, sched) cell.  Drawing the
    same number from every cell keeps the pool's cost profile the same
    for every seed: 14 kernels x 2 flows x 2 scheds x 6 = 336 jobs. *)
let per_cell = 6

let compile_pool ~seed : D.job array =
  let st = rng seed [ 1 ] in
  let jobs =
    Array.to_list (spaces ())
    |> List.concat_map (fun s ->
           List.concat_map
             (fun flow ->
               List.concat_map
                 (fun sched ->
                   Array.to_list
                     (Array.map
                        (fun i -> job s flow sched s.configs.(i))
                        (sample st per_cell (Array.length s.configs))))
                 B.all_scheds)
             flows)
  in
  let a = Array.of_list jobs in
  shuffle st a;
  a

(* ------------------------------------------------------------------ *)
(* DSE searches (the traced run's DSE and driver-session probe)        *)
(* ------------------------------------------------------------------ *)

type dse_item = { d_kernel : K.kernel; d_scheds : B.sched list }

let dse_label (it : dse_item) =
  it.d_kernel.K.kname
  ^ if List.length it.d_scheds > 1 then "/both" else "/static"

(** Every kernel once per backend axis (static, or both), in seeded
    order. *)
let dse_items ~seed : dse_item array =
  let a =
    Array.of_list
      (List.concat_map
         (fun k ->
           [ { d_kernel = k; d_scheds = [ B.Static ] };
             { d_kernel = k; d_scheds = B.all_scheds } ])
         (K.all ()))
  in
  shuffle (rng seed [ 2 ]) a;
  a

(* ------------------------------------------------------------------ *)
(* serve-mix                                                          *)
(* ------------------------------------------------------------------ *)

type kind = Hot | Cold | Bulk

(** What a request asks for, in the terms the in-process oracle
    re-computes it with. *)
type target =
  | Compile_job of D.job
  | Lint_job of K.kernel * K.directives
  | Opt_module of int  (** function count of the synthetic module *)

type sreq = { kind : kind; label : string; target : target; req : P.request }

let proto_directives (d : K.directives) : P.directives =
  {
    P.d_ii = d.K.pipeline_ii;
    d_unroll = d.K.unroll;
    d_strategy = (match d.K.strategy with K.Inner -> "inner" | K.Middle -> "middle");
    d_partitions = d.K.partitions;
  }

(** The pipeline the serve handlers compile a kernel with. *)
let serve_pipeline (k : K.kernel) : Adaptor.Pipeline.t =
  { Adaptor.Pipeline.default with Adaptor.Pipeline.top = Some k.K.kname; strict = true }

(** Printed text of [Synth.many_kernels ~n:max_functions], split at
    function boundaries: the text of [many_kernels ~n] for any smaller
    [n] is its header plus the first [n] functions. *)
type bulk_source = { text : string; starts : int array; max_functions : int }

(** Enough functions for the largest size class (about 650 bytes per
    function). *)
let max_functions = 2000

let bulk_source () : bulk_source =
  let m = Mhls_driver.Synth.many_kernels ~n:max_functions in
  let text = Llvmir.Lprinter.module_to_string m in
  let starts = List.map (fun i -> i + 1) (find_all text "\ndefine ") in
  { text; starts = Array.of_list starts; max_functions }

let module_text (src : bulk_source) (n : int) : string =
  let n = max 1 (min n src.max_functions) in
  let first = src.starts.(0) in
  (* functions are separated by one blank line *)
  let stop =
    if n < Array.length src.starts then src.starts.(n) - 1 else String.length src.text
  in
  Printf.sprintf "; ModuleID = 'synth%d'\n\n%s" n
    (String.sub src.text first (stop - first))

(** Bytes per function of the printed synthetic module. *)
let bytes_per_function (src : bulk_source) =
  float_of_int (String.length src.text) /. float_of_int src.max_functions

type serve_inputs = {
  u_spaces : space array;
  u_offsets : int array;  (** prefix sums of the config counts *)
  u_perm : int array;  (** seeded permutation of the request universe *)
  bulk : bulk_source;
  bulk_classes : int array;  (** function counts of the size classes *)
  seed : int;
}

(** Compile under 2 flows x 2 scheds, or lint: 5 variants per config. *)
let variants = 5

(** Distinct hot requests; the rest of the universe is cold. *)
let hot_set = 20

(** Size classes of fresh bulk modules, log-spaced over
    [bulk_min_bytes, bulk_max_bytes]; every seed sends the same spread
    of sizes. *)
let bulk_classes = 6

(** Fresh bulk modules per connection.  Later bulk requests repeat
    earlier ones, so the daemon's response memo (which keeps every
    distinct reply) stops growing at the same point in every run
    instead of growing with the run's speed. *)
let fresh_bulk = 12

let bulk_min_bytes = 100_000.
let bulk_max_bytes = 1_200_000.

(** Requests per block: 1 bulk, 12 cold, 37 hot (2% / 24% / 74%). *)
let block = 50

let cold_per_block = 12

let serve_inputs ~seed : serve_inputs =
  let spaces = spaces () in
  let offsets = Array.make (Array.length spaces + 1) 0 in
  Array.iteri
    (fun i s -> offsets.(i + 1) <- offsets.(i) + Array.length s.configs)
    spaces;
  let total = offsets.(Array.length spaces) * variants in
  let perm = Array.init total Fun.id in
  shuffle (rng seed [ 3 ]) perm;
  let bulk = bulk_source () in
  let bpf = bytes_per_function bulk in
  let lo = log bulk_min_bytes and hi = log bulk_max_bytes in
  let classes =
    Array.init bulk_classes (fun k ->
        let bytes = exp (lo +. (float_of_int k /. float_of_int (bulk_classes - 1) *. (hi -. lo))) in
        max 1 (int_of_float (bytes /. bpf)))
  in
  { u_spaces = spaces; u_offsets = offsets; u_perm = perm; bulk;
    bulk_classes = classes; seed }

let rec locate (offsets : int array) g lo hi =
  if hi - lo <= 1 then lo
  else
    let mid = (lo + hi) / 2 in
    if offsets.(mid) <= g then locate offsets g mid hi else locate offsets g lo mid

(** Universe element [e] as a compile or lint request. *)
let element (si : serve_inputs) (kind : kind) (e : int) : sreq =
  let g = e / variants and v = e mod variants in
  let si_idx = locate si.u_offsets g 0 (Array.length si.u_spaces) in
  let s = si.u_spaces.(si_idx) in
  let c = s.configs.(g - si.u_offsets.(si_idx)) in
  let k = s.kernel in
  let d = Sp.to_directives s.sp c in
  if v = 4 then
    {
      kind;
      label = String.concat "/" [ "lint"; k.K.kname; Sp.describe c ];
      target = Lint_job (k, d);
      req =
        P.Lint
          {
            P.l_kernel = Some k.K.kname;
            l_source = None;
            l_directives = proto_directives d;
            l_rules = None;
            l_werror = false;
            l_top = None;
            l_passes = None;
            l_disable = [];
          };
    }
  else
    let flow = List.nth flows (v / 2) in
    let sched = List.nth B.all_scheds (v mod 2) in
    let j = job s flow sched c in
    {
      kind;
      label = "compile/" ^ j.D.label;
      target = Compile_job j;
      req =
        P.Compile
          {
            P.c_kernel = k.K.kname;
            c_flow = (match flow with Flow.Direct_ir -> "direct" | Flow.Hls_cpp -> "cpp");
            c_sched = B.sched_name sched;
            c_directives = proto_directives d;
            c_clock_ns = j.D.clock_ns;
            c_passes = None;
            c_disable = [];
          };
    }

(** The hot set as universe elements: kernels in seeded order, request
    variants in rotation (4 of each), so every seed's hot set has the
    same shape. *)
let hot_elements (si : serve_inputs) : int array =
  let st = rng si.seed [ 6 ] in
  let n = Array.length si.u_spaces in
  let order = sample st n n in
  Array.init hot_set (fun i ->
      let s = order.(i mod n) in
      let g = si.u_offsets.(s) + Random.State.int st (Array.length si.u_spaces.(s).configs) in
      (g * variants) + (i mod variants))

let hot_requests (si : serve_inputs) : sreq array =
  Array.map (element si Hot) (hot_elements si)

let opt_request (si : serve_inputs) ~n ~parallel : sreq =
  {
    kind = Bulk;
    label = Printf.sprintf "opt/synth%d/%s" n (if parallel then "par" else "seq");
    target = Opt_module n;
    req =
      P.Opt
        {
          P.op_source = Some (module_text si.bulk n);
          op_synth = None;
          op_passes = None;
          op_parallel = parallel;
          op_jobs = 2;
          op_parsafe = false;
          op_json = false;
        };
  }

(** The largest bulk class, sent once during warm-up so that the
    daemon's peak memory does not depend on when it first arrives. *)
let largest_bulk (si : serve_inputs) : sreq =
  opt_request si ~n:(Array.fold_left max 0 si.bulk_classes) ~parallel:false

(** Connection [conn]'s request stream: block [b] holds 1 bulk, 12
    cold and 37 hot requests in seeded order.  Hot requests are drawn
    from {!hot_requests} with a mild skew (weight 1/sqrt(rank)); the
    [j]-th cold request of connection [c] is the [2j + c]-th non-hot
    element of the seeded universe permutation, so no cold request is
    ever repeated.  Bulk request [j]: for even [j] below [2 fresh_bulk]
    a fresh module (size class rotating, sequential and parallel
    alternating), otherwise a verbatim repeat of an earlier one. *)
let stream (si : serve_inputs) ~(conn : int) : unit -> sreq =
  let hot = hot_requests si in
  let hot_e = hot_elements si in
  let cold_elems =
    Array.of_list (List.filter (fun e -> not (Array.mem e hot_e)) (Array.to_list si.u_perm))
  in
  let weights = Array.init hot_set (fun i -> 1.0 /. sqrt (float_of_int (i + 1))) in
  let wsum = Array.fold_left ( +. ) 0.0 weights in
  let pick st =
    let r = Random.State.float st wsum in
    let rec go i acc =
      if i >= hot_set - 1 || acc +. weights.(i) > r then i
      else go (i + 1) (acc +. weights.(i))
    in
    go 0 0.0
  in
  let cur = ref [||] and pos = ref 0 and b = ref (-1) in
  let fresh = ref [] in
  let fill () =
    incr b;
    let st = rng si.seed [ 5; conn; !b ] in
    let slots =
      Array.init block (fun i ->
          if i = 0 then Bulk else if i <= cold_per_block then Cold else Hot)
    in
    shuffle st slots;
    let cold = ref 0 in
    cur :=
      Array.map
        (function
          | Hot -> hot.(pick st)
          | Cold ->
              let j = (!b * cold_per_block) + !cold in
              incr cold;
              element si Cold cold_elems.(((2 * j) + conn) mod Array.length cold_elems)
          | Bulk -> (
              let made = List.length !fresh in
              match !fresh with
              | r :: _ when !b mod 2 = 1 -> r
              | _ when made < fresh_bulk ->
                  let cls = (made + (conn * 3)) mod bulk_classes in
                  let n = si.bulk_classes.(cls) + (2 * (made / bulk_classes)) + conn in
                  let r = opt_request si ~n ~parallel:(made mod 2 = 1) in
                  fresh := r :: !fresh;
                  r
              | _ -> List.nth !fresh (Random.State.int st made)))
        slots;
    pos := 0
  in
  fun () ->
    if !pos >= Array.length !cur then fill ();
    let r = !cur.(!pos) in
    incr pos;
    r
