(** Order statistics and the result line. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(** Nearest-rank percentile of a sorted array ([nan] when empty). *)
let percentile (s : float array) (p : float) : float =
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))

let median xs = percentile (sorted xs) 50.

(** Samples strictly beyond percentile [p] of [n] samples. *)
let beyond n p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))

(** Completions per second, as the median over consecutive runs of
    [chunk] completions: a short stall of the machine moves a few
    chunks instead of the whole figure.  [stamps] are completion times
    in seconds since the start of the measured region. *)
let chunk_rates (stamps : float list) ~(chunk : int) : float list =
  let s = sorted stamps in
  let n = Array.length s in
  if n = 0 then [ 0. ]
  else if n < 2 * chunk then [ float_of_int n /. Float.max 1e-9 s.(n - 1) ]
  else
    List.init (n / chunk) (fun i ->
        let lo = if i = 0 then 0. else s.((i * chunk) - 1) in
        float_of_int chunk /. Float.max 1e-9 (s.(((i + 1) * chunk) - 1) -. lo))

let chunked_rate stamps ~chunk = median (chunk_rates stamps ~chunk)

(** Each distinct input's fastest repetition.  The host under the
    benchmark drifts in speed by tens of percent over seconds; the
    fastest of several repetitions of one input is far steadier than
    any statistic over all samples, and a slower program still raises
    it. *)
let best_per_input (samples : (int * float) list) : (int * float) list =
  let best = Hashtbl.create 64 in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt best k with
      | Some b when b <= v -> ()
      | _ -> Hashtbl.replace best k v)
    samples;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) best []

(* ------------------------------------------------------------------ *)
(* Metrics and the final JSON line                                    *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** Human-readable metric lines (one per metric, aligned). *)
let print_metrics ~(title : string) (ms : metric list) =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-36s %16.6f %s\n" m.name m.value m.unit_)
    ms

(** The last line of standard output: the machine-readable result. *)
let print_result ~correct ~attempted ~failed (ms : metric list) =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_number m.value) (json_string m.unit_))
      ms
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)
