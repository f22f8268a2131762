(** HLS C++ emission from the multi-level IR — the baseline flow's
    first half, modelled after ScaleHLS's [-scalehls-emit-hlscpp].

    Every SSA value becomes a named C variable (one statement per op),
    loop-carried values become mutable locals, and HLS directives
    become [#pragma HLS] lines.  The output is accepted by the mini-C
    front-end ({!Cparse}/{!Ccodegen}), closing the
    MLIR → C++ → (re-parse) → LLVM IR round-trip. *)

open Mhir

let fail = Support.Err.fail ~pass:"hlscpp.emit"

let ctype_of (t : Types.ty) =
  match t with
  | Types.I1 -> "int"
  | Types.I32 -> "int"
  | Types.I64 | Types.Index -> "long"
  | Types.F32 -> "float"
  | Types.F64 -> "double"
  | Types.Memref _ -> fail "memref has no scalar C type"

(* A C integer literal.  C has no literal for the most negative value,
   so [min_int] prints as an expression, the way C spells INT_MIN. *)
let c_int i =
  if i = min_int then Printf.sprintf "(%d - 1)" (i + 1) else string_of_int i

let vname (v : Ir.value) =
  if v.Ir.hint <> "" then v.Ir.hint else "v" ^ string_of_int (v.Ir.id)

(** C expression for an affine expression over C index expressions. *)
let rec cexpr_of_affine ~dims ~syms (e : Affine_expr.t) : string =
  let sub = cexpr_of_affine ~dims ~syms in
  match e with
  | Affine_expr.Const c -> c_int c
  | Affine_expr.Dim i -> List.nth dims i
  | Affine_expr.Sym i -> List.nth syms i
  | Affine_expr.Add (a, b) -> Printf.sprintf "(%s + %s)" (sub a) (sub b)
  | Affine_expr.Mul (a, b) -> Printf.sprintf "(%s * %s)" (sub a) (sub b)
  | Affine_expr.Mod (a, b) -> Printf.sprintf "(%s %% %s)" (sub a) (sub b)
  | Affine_expr.FloorDiv (a, b) -> Printf.sprintf "(%s / %s)" (sub a) (sub b)
  | Affine_expr.CeilDiv (a, b) ->
      Printf.sprintf "((%s + %s - 1) / %s)" (sub a) (sub b) (sub b)

type ctx = {
  buf : Buffer.t;
  mutable indent : int;
  names : (int, string) Hashtbl.t;  (** value id -> C name *)
}

let line ctx fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string ctx.buf (String.make ctx.indent ' ');
      Buffer.add_string ctx.buf s;
      Buffer.add_char ctx.buf '\n')
    fmt

let name_of ctx (v : Ir.value) =
  match Hashtbl.find_opt ctx.names v.Ir.id with
  | Some n -> n
  | None ->
      let n = vname v in
      Hashtbl.replace ctx.names v.Ir.id n;
      n

let float_lit f ty =
  let s = Support.Float_lit.to_string f in
  match ty with Types.F32 -> s ^ "f" | _ -> s

let subscripts ctx map operand_vals =
  let names = List.map (name_of ctx) operand_vals in
  let rec take n l =
    if n = 0 then ([], l)
    else
      match l with
      | x :: tl ->
          let a, b = take (n - 1) tl in
          (x :: a, b)
      | [] -> fail "map operand list too short"
  in
  let dims, syms = take map.Affine_map.num_dims names in
  List.map (cexpr_of_affine ~dims ~syms) map.Affine_map.exprs

(* The C operator of each mhir binop that prints as one. *)
let c_binop = function
  | "arith.addi" | "arith.addf" -> Some "+"
  | "arith.subi" | "arith.subf" -> Some "-"
  | "arith.muli" | "arith.mulf" -> Some "*"
  | "arith.divsi" | "arith.divf" -> Some "/"
  | "arith.remsi" -> Some "%"
  | "arith.andi" -> Some "&"
  | "arith.ori" -> Some "|"
  | "arith.xori" -> Some "^"
  | "arith.shli" -> Some "<<"
  | "arith.shrsi" -> Some ">>"
  | _ -> None

(* The C operator of each signed or ordered compare predicate. *)
let c_cmp = function
  | "eq" | "oeq" -> Some "=="
  | "ne" | "one" -> Some "!="
  | "slt" | "olt" -> Some "<"
  | "sle" | "ole" -> Some "<="
  | "sgt" | "ogt" -> Some ">"
  | "sge" | "oge" -> Some ">="
  | _ -> None

let rec emit_ops ctx (ops : Ir.op list) : unit =
  List.iter (emit_op ctx) ops

and emit_op ctx (o : Ir.op) : unit =
  let n k = name_of ctx (List.nth o.Ir.operands k) in
  let def v rhs =
    line ctx "%s %s = %s;" (ctype_of v.Ir.ty) (name_of ctx v) rhs
  in
  match o.Ir.name with
  | "arith.constant" -> (
      let r = List.hd o.Ir.results in
      match Attr.find_exn o.Ir.attrs "value" with
      | Attr.Int i -> def r (c_int i)
      | Attr.Float f -> def r (float_lit f r.Ir.ty)
      | a -> fail "bad constant %s" (Attr.to_string a))
  (* C has no unsigned-typed locals in this dialect, so unsigned ops and
     floor division print as [__mhls_*] helper calls that the mini-C
     front-end ({!Ccodegen}) recognizes and lowers back to the right
     LLVM instructions. *)
  | "arith.divui" | "arith.remui" | "arith.shrui" | "arith.floordivsi"
  | "arith.maxui" | "arith.minui" ->
      let helper =
        match o.Ir.name with
        | "arith.divui" -> "__mhls_udiv"
        | "arith.remui" -> "__mhls_urem"
        | "arith.shrui" -> "__mhls_lshr"
        | "arith.floordivsi" -> "__mhls_floordiv"
        | "arith.maxui" -> "__mhls_umax"
        | _ -> "__mhls_umin"
      in
      def (List.hd o.Ir.results) (Printf.sprintf "%s(%s, %s)" helper (n 0) (n 1))
  | "arith.negf" -> def (List.hd o.Ir.results) (Printf.sprintf "-%s" (n 0))
  | "arith.maxsi" | "arith.maximumf" ->
      def (List.hd o.Ir.results)
        (Printf.sprintf "%s > %s ? %s : %s" (n 0) (n 1) (n 0) (n 1))
  | "arith.minsi" | "arith.minimumf" ->
      def (List.hd o.Ir.results)
        (Printf.sprintf "%s < %s ? %s : %s" (n 0) (n 1) (n 0) (n 1))
  | "arith.cmpi" | "arith.cmpf" -> (
      let p = Attr.as_str (Attr.find_exn o.Ir.attrs "predicate") in
      match c_cmp p with
      | Some c_op ->
          def (List.hd o.Ir.results)
            (Printf.sprintf "%s %s %s" (n 0) c_op (n 1))
      | None ->
          (* unsigned predicates go through helper calls, like the
             unsigned binops above *)
          def (List.hd o.Ir.results)
            (Printf.sprintf "__mhls_%s(%s, %s)" p (n 0) (n 1)))
  | "arith.select" ->
      def (List.hd o.Ir.results)
        (Printf.sprintf "%s ? %s : %s" (n 0) (n 1) (n 2))
  | "arith.index_cast" | "arith.extf" | "arith.truncf" | "arith.sitofp"
  | "arith.fptosi" ->
      let r = List.hd o.Ir.results in
      def r (Printf.sprintf "(%s)%s" (ctype_of r.Ir.ty) (n 0))
  | "affine.apply" ->
      let map = Attr.as_map (Attr.find_exn o.Ir.attrs "map") in
      let subs = subscripts ctx map o.Ir.operands in
      def (List.hd o.Ir.results) (List.hd subs)
  | "affine.load" | "memref.load" ->
      let mem = List.hd o.Ir.operands in
      let subs =
        match o.Ir.name with
        | "affine.load" ->
            subscripts ctx
              (Attr.as_map (Attr.find_exn o.Ir.attrs "map"))
              (List.tl o.Ir.operands)
        | _ -> List.map (name_of ctx) (List.tl o.Ir.operands)
      in
      def (List.hd o.Ir.results)
        (Printf.sprintf "%s%s" (name_of ctx mem)
           (String.concat "" (List.map (Printf.sprintf "[%s]") subs)))
  | "affine.store" | "memref.store" -> (
      match o.Ir.operands with
      | v :: mem :: rest ->
          let subs =
            match o.Ir.name with
            | "affine.store" ->
                subscripts ctx
                  (Attr.as_map (Attr.find_exn o.Ir.attrs "map"))
                  rest
            | _ -> List.map (name_of ctx) rest
          in
          line ctx "%s%s = %s;" (name_of ctx mem)
            (String.concat "" (List.map (Printf.sprintf "[%s]") subs))
            (name_of ctx v)
      | _ -> fail "store: malformed")
  | "memref.alloc" | "memref.alloca" -> (
      let r = List.hd o.Ir.results in
      match r.Ir.ty with
      | Types.Memref (shape, elem) ->
          line ctx "%s %s%s;" (ctype_of elem) (name_of ctx r)
            (String.concat ""
               (List.map (Printf.sprintf "[%d]") shape))
      | _ -> fail "alloc: not a memref")
  | "memref.dealloc" -> ()
  | "affine.for" -> emit_for ctx o
  | "scf.for" -> emit_scf_for ctx o
  | "scf.if" -> emit_if ctx o
  | "func.call" ->
      let callee = Attr.as_str (Attr.find_exn o.Ir.attrs "callee") in
      let args = String.concat ", " (List.map (name_of ctx) o.Ir.operands) in
      (match o.Ir.results with
      | [] -> line ctx "%s(%s);" callee args
      | [ r ] -> def r (Printf.sprintf "%s(%s)" callee args)
      | _ -> fail "call: multiple results unsupported")
  | "func.return" -> (
      match o.Ir.operands with
      | [] -> ()
      | [ v ] -> line ctx "return %s;" (name_of ctx v)
      | _ -> fail "return: multiple values unsupported")
  | "affine.yield" | "scf.yield" -> ()  (* handled by loop emitters *)
  | name -> (
      match c_binop name with
      | Some c_op ->
          def (List.hd o.Ir.results) (Printf.sprintf "%s %s %s" (n 0) c_op (n 1))
      | None -> fail "emit: unhandled op %s" name)

and emit_loop_body ctx (o : Ir.op) ~(iv_name : string)
    ~(carry_names : string list) =
  let blk = Ir.entry_block (List.hd o.Ir.regions) in
  let iv, iter_params =
    match blk.Ir.params with
    | iv :: rest -> (iv, rest)
    | [] -> fail "loop without induction variable"
  in
  Hashtbl.replace ctx.names iv.Ir.id iv_name;
  List.iter2
    (fun (p : Ir.value) cn -> Hashtbl.replace ctx.names p.Ir.id cn)
    iter_params carry_names;
  (* pragmas first (must follow the opening brace) *)
  List.iter
    (fun (k, a) ->
      match (k, a) with
      | "hls.pipeline", Attr.Int ii -> line ctx "#pragma HLS pipeline II=%d" ii
      | "hls.pipeline", Attr.Bool true -> line ctx "#pragma HLS pipeline"
      | "hls.unroll", Attr.Int f -> line ctx "#pragma HLS unroll factor=%d" f
      | "hls.unroll", Attr.Bool true -> line ctx "#pragma HLS unroll"
      | _ -> ())
    o.Ir.attrs;
  emit_ops ctx blk.Ir.ops;
  (* carried values update at the end of the body *)
  (match List.rev blk.Ir.ops with
  | last :: _ when last.Ir.name = "affine.yield" || last.Ir.name = "scf.yield"
    ->
      List.iter2
        (fun cn (y : Ir.value) ->
          let yn = name_of ctx y in
          if yn <> cn then line ctx "%s = %s;" cn yn)
        carry_names last.Ir.operands
  | _ -> ())

and emit_for ctx (o : Ir.op) =
  let lb =
    match Affine_map.as_constant (Attr.as_map (Attr.find_exn o.Ir.attrs "lower_map")) with
    | Some c -> c
    | None -> fail "affine.for: symbolic bounds unsupported"
  in
  let ub =
    match Affine_map.as_constant (Attr.as_map (Attr.find_exn o.Ir.attrs "upper_map")) with
    | Some c -> c
    | None -> fail "affine.for: symbolic bounds unsupported"
  in
  let step = Attr.as_int (Attr.find_exn o.Ir.attrs "step") in
  emit_counted_for ctx o ~lb:(string_of_int lb) ~ub:(string_of_int ub)
    ~step ()

and emit_scf_for ctx (o : Ir.op) =
  match o.Ir.operands with
  | lb :: ub :: step :: _ ->
      emit_counted_for ctx
        { o with Ir.operands = List.filteri (fun i _ -> i >= 3) o.Ir.operands }
        ~lb:(name_of ctx lb) ~ub:(name_of ctx ub)
        ~step_expr:(name_of ctx step) ~step:1 ()
  | _ -> fail "scf.for: malformed operands"

and emit_counted_for ctx (o : Ir.op) ?step_expr ~lb ~ub ~step () =
  let blk = Ir.entry_block (List.hd o.Ir.regions) in
  let iv =
    match blk.Ir.params with
    | iv :: _ -> iv
    | [] -> fail "loop without induction variable"
  in
  let iv_name = "i" ^ string_of_int iv.Ir.id in
  (* declare carried locals, initialized from the loop operands *)
  let carry_names =
    List.mapi
      (fun k (init : Ir.value) ->
        let r = List.nth o.Ir.results k in
        let cn = "c" ^ string_of_int r.Ir.id in
        line ctx "%s %s = %s;" (ctype_of r.Ir.ty) cn (name_of ctx init);
        cn)
      o.Ir.operands
  in
  let step_str =
    match step_expr with
    | Some e -> Printf.sprintf "%s += %s" iv_name e
    | None ->
        if step = 1 then iv_name ^ "++"
        else Printf.sprintf "%s += %d" iv_name step
  in
  line ctx "for (int %s = %s; %s < %s; %s) {" iv_name lb iv_name ub step_str;
  ctx.indent <- ctx.indent + 2;
  emit_loop_body ctx o ~iv_name ~carry_names;
  ctx.indent <- ctx.indent - 2;
  line ctx "}";
  (* loop results are the carried locals *)
  List.iteri
    (fun k (r : Ir.value) ->
      Hashtbl.replace ctx.names r.Ir.id (List.nth carry_names k))
    o.Ir.results

and emit_if ctx (o : Ir.op) =
  let cond = name_of ctx (List.hd o.Ir.operands) in
  (* declare result variables *)
  let res_names =
    List.map
      (fun (r : Ir.value) ->
        let rn = "r" ^ string_of_int r.Ir.id in
        line ctx "%s %s = 0;" (ctype_of r.Ir.ty) rn;
        Hashtbl.replace ctx.names r.Ir.id rn;
        rn)
      o.Ir.results
  in
  let emit_branch (r : Ir.region) =
    let blk = Ir.entry_block r in
    ctx.indent <- ctx.indent + 2;
    emit_ops ctx blk.Ir.ops;
    (match List.rev blk.Ir.ops with
    | last :: _ when last.Ir.name = "scf.yield" ->
        List.iter2
          (fun rn (y : Ir.value) -> line ctx "%s = %s;" rn (name_of ctx y))
          res_names last.Ir.operands
    | _ -> ());
    ctx.indent <- ctx.indent - 2
  in
  line ctx "if (%s) {" cond;
  emit_branch (List.nth o.Ir.regions 0);
  let else_blk = Ir.entry_block (List.nth o.Ir.regions 1) in
  if List.length else_blk.Ir.ops > 1 || o.Ir.results <> [] then begin
    line ctx "} else {";
    emit_branch (List.nth o.Ir.regions 1)
  end;
  line ctx "}"

(** Emit one function as HLS C++. *)
let emit_func (f : Ir.func) : string =
  let ctx = { buf = Buffer.create 1024; indent = 0; names = Hashtbl.create 64 } in
  let params =
    List.map
      (fun (v : Ir.value) ->
        let pname = if v.Ir.hint <> "" then v.Ir.hint else "a" ^ string_of_int v.Ir.id in
        Hashtbl.replace ctx.names v.Ir.id pname;
        match v.Ir.ty with
        | Types.Memref (shape, elem) ->
            Printf.sprintf "%s %s%s" (ctype_of elem) pname
              (String.concat "" (List.map (Printf.sprintf "[%d]") shape))
        | t -> Printf.sprintf "%s %s" (ctype_of t) pname)
      f.Ir.args
  in
  let ret =
    match f.Ir.ret_tys with
    | [] -> "void"
    | [ t ] -> ctype_of t
    | _ -> fail "multiple return values unsupported in C"
  in
  line ctx "%s %s(%s) {" ret f.Ir.fname (String.concat ", " params);
  ctx.indent <- 2;
  (* array partition / interface pragmas from function attributes *)
  List.iter
    (fun (k, a) ->
      let prefix = "hls.partition." in
      if String.length k > String.length prefix
         && String.starts_with ~prefix k
      then
        let var = String.sub k (String.length prefix) (String.length k - String.length prefix) in
        match a with
        | Attr.List [ Attr.Str kind; Attr.Int factor; Attr.Int dim ] ->
            line ctx "#pragma HLS array_partition variable=%s %s factor=%d dim=%d"
              var kind factor dim
        | Attr.Str spec -> (
            (* "kind:factor:dim" encoding used by the kernel builders *)
            match String.split_on_char ':' spec with
            | [ kind; factor; dim ] ->
                line ctx
                  "#pragma HLS array_partition variable=%s %s factor=%s dim=%s"
                  var kind factor dim
            | _ -> ())
        | _ -> ())
    f.Ir.fattrs;
  emit_ops ctx (Ir.entry_block f.Ir.body).Ir.ops;
  ctx.indent <- 0;
  line ctx "}";
  Buffer.contents ctx.buf

let emit_module (m : Ir.modul) : string =
  "// Generated by the MLIR HLS C++ emitter (baseline flow)\n\n"
  ^ String.concat "\n" (List.map emit_func m.Ir.funcs)
