(** Canonicalization: constant folding, algebraic identities and
    elimination of dead pure ops.  This mirrors MLIR's [-canonicalize]
    at the level of detail the flows need and runs before lowering in
    both flows. *)

open Ir

(* Folding must agree with {!Interp} bit-for-bit (the differential
   oracle runs canonicalized and raw kernels against each other), so
   unsigned ops, shifts and result normalization all defer to
   {!Support.Int_sem} in the result type's width. *)
let fold_int_binop name ty a b =
  let module S = Support.Int_sem in
  match Types.int_width ty with
  | exception Invalid_argument _ -> None
  | w -> (
      let nz f x y = if y = 0 then raise Exit else f x y in
      let a = S.norm ~width:w a and b = S.norm ~width:w b in
      let f =
        match name with
        | "arith.addi" -> Some ( + )
        | "arith.subi" -> Some ( - )
        | "arith.muli" -> Some ( * )
        | "arith.divsi" -> Some (nz ( / ))
        | "arith.remsi" -> Some (nz (fun x y -> x mod y))
        | "arith.divui" -> Some (nz (S.udiv ~width:w))
        | "arith.remui" -> Some (nz (S.urem ~width:w))
        | "arith.floordivsi" -> Some (nz S.floordivsi)
        | "arith.andi" -> Some ( land )
        | "arith.ori" -> Some ( lor )
        | "arith.xori" -> Some ( lxor )
        | "arith.shli" -> Some (S.shl ~width:w)
        | "arith.shrsi" -> Some (S.ashr ~width:w)
        | "arith.shrui" -> Some (S.lshr ~width:w)
        | "arith.maxsi" -> Some max
        | "arith.minsi" -> Some min
        | "arith.maxui" -> Some S.umax
        | "arith.minui" -> Some S.umin
        | _ -> None
      in
      match f with
      | Some f -> ( try Some (S.norm ~width:w (f a b)) with Exit -> None)
      | None -> None)

let fold_float_binop name a b =
  match name with
  | "arith.addf" -> Some (a +. b)
  | "arith.subf" -> Some (a -. b)
  | "arith.mulf" -> Some (a *. b)
  | "arith.divf" -> Some (a /. b)
  | "arith.maximumf" -> Some (Float.max a b)
  | "arith.minimumf" -> Some (Float.min a b)
  | _ -> None

(** One folding walk over a function.  Because defs precede uses in the
    structured IR, a single in-order traversal that records constants
    and aliases as it goes sees every binding before its uses. *)
let fold_constants_func (f : func) : func * bool =
  let consts : (int, Attr.t) Hashtbl.t = Hashtbl.create 64 in
  let alias : (int, value) Hashtbl.t = Hashtbl.create 16 in
  let changed = ref false in
  let resolve v =
    match Hashtbl.find_opt alias v.id with Some v' -> v' | None -> v
  in
  let const_of v = Hashtbl.find_opt consts (resolve v).id in
  let mk_const (r : value) attr =
    Hashtbl.replace consts r.id attr;
    {
      name = "arith.constant";
      operands = [];
      results = [ r ];
      attrs = [ ("value", attr) ];
      regions = [];
    }
  in
  let set_alias (r : value) target =
    changed := true;
    Hashtbl.replace alias r.id (resolve target)
  in
  let rec rw_op (o : op) : op list =
    let o = { o with operands = List.map resolve o.operands } in
    let o = { o with regions = List.map rw_region o.regions } in
    match o.name with
    | "arith.constant" ->
        Hashtbl.replace consts (List.hd o.results).id
          (Attr.find_exn o.attrs "value");
        [ o ]
    | _ -> (
        match (o.operands, o.results) with
        | [ a; b ], [ r ] -> (
            match (const_of a, const_of b) with
            | Some (Attr.Int x), Some (Attr.Int y) -> (
                match fold_int_binop o.name r.ty x y with
                | Some v ->
                    changed := true;
                    [ mk_const r (Attr.Int v) ]
                | None -> [ o ])
            | Some (Attr.Float x), Some (Attr.Float y) -> (
                match fold_float_binop o.name x y with
                | Some v ->
                    changed := true;
                    [ mk_const r (Attr.Float v) ]
                | None -> [ o ])
            | _, cb -> (
                let ca = const_of a in
                match (o.name, ca, cb) with
                | ("arith.addi" | "arith.ori" | "arith.xori"), _, Some (Attr.Int 0)
                | ("arith.muli" | "arith.divsi"), _, Some (Attr.Int 1)
                | ( ("arith.shli" | "arith.shrsi" | "arith.shrui"),
                    _,
                    Some (Attr.Int 0) )
                | "arith.subi", _, Some (Attr.Int 0) ->
                    set_alias r a;
                    []
                | ("arith.addi" | "arith.ori" | "arith.xori"), Some (Attr.Int 0), _
                | "arith.muli", Some (Attr.Int 1), _ ->
                    set_alias r b;
                    []
                | "arith.muli", (Some (Attr.Int 0) as z), _
                | "arith.muli", _, (Some (Attr.Int 0) as z)
                | "arith.andi", (Some (Attr.Int 0) as z), _
                | "arith.andi", _, (Some (Attr.Int 0) as z) -> (
                    match z with
                    | Some attr ->
                        changed := true;
                        [ mk_const r attr ]
                    | None -> [ o ])
                (* only the identities IEEE keeps exact at [x = -0.0]:
                   [-0.0 + 0.0] is [+0.0], so [x + 0.0] is not [x] (and
                   a float pattern [0.0] also matches [-0.0]) *)
                | "arith.addf", _, Some (Attr.Float z)
                  when z = 0.0 && Float.sign_bit z ->
                    set_alias r a;
                    []
                | "arith.subf", _, Some (Attr.Float z)
                  when z = 0.0 && not (Float.sign_bit z) ->
                    set_alias r a;
                    []
                | ("arith.mulf" | "arith.divf"), _, Some (Attr.Float 1.0) ->
                    set_alias r a;
                    []
                | "arith.addf", Some (Attr.Float z), _
                  when z = 0.0 && Float.sign_bit z ->
                    set_alias r b;
                    []
                | "arith.mulf", Some (Attr.Float 1.0), _ ->
                    set_alias r b;
                    []
                | _ -> [ o ]))
        | [ c; x; y ], [ r ] when o.name = "arith.select" -> (
            match const_of c with
            | Some (Attr.Int 0) ->
                set_alias r y;
                []
            | Some (Attr.Int _) ->
                set_alias r x;
                []
            | _ -> [ o ])
        | _ -> [ o ])
  and rw_region (r : region) : region =
    {
      blocks =
        List.map
          (fun b -> { b with ops = List.concat_map rw_op b.ops })
          r.blocks;
    }
  in
  let f' = { f with body = rw_region f.body } in
  (f', !changed)

(** Remove pure ops whose results are never used.  Iterates to a fixed
    point (removing one op can make its operands dead). *)
let eliminate_dead_func (f : func) : func * bool =
  let changed_any = ref false in
  let rec go f =
    let used = used_values f.body in
    let changed = ref false in
    let keep (o : op) =
      let pure = Dialect.is_pure o.name in
      let any_used =
        List.exists (fun (r : value) -> Hashtbl.mem used r.id) o.results
      in
      if pure && o.results <> [] && not any_used then begin
        changed := true;
        false
      end
      else true
    in
    let rec clean_region (r : region) =
      {
        blocks =
          List.map
            (fun b ->
              {
                b with
                ops =
                  List.filter_map
                    (fun o ->
                      if keep o then
                        Some
                          { o with regions = List.map clean_region o.regions }
                      else None)
                    b.ops;
              })
            r.blocks;
      }
    in
    let f' = { f with body = clean_region f.body } in
    if !changed then begin
      changed_any := true;
      go f'
    end
    else f'
  in
  let f' = go f in
  (f', !changed_any)

(** Full canonicalization to fixpoint (bounded iterations). *)
let run_func (f : func) : func =
  let rec go f n =
    if n = 0 then f
    else
      let f, c1 = fold_constants_func f in
      let f, c2 = eliminate_dead_func f in
      if c1 || c2 then go f (n - 1) else f
  in
  go f 8

let run (m : modul) : modul = { funcs = List.map run_func m.funcs }
