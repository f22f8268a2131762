(** Race checker over {!Effects} footprints.  See the interface. *)

module Sym = Support.Interner

type conflict =
  | Global_write_write of string * string * string
  | Global_read_write of string * string * string
  | Unknown_effects of string * string list

type verdict = Safe | Unsafe of conflict list

let conflict_to_string = function
  | Global_write_write (fa, fb, g) ->
      Printf.sprintf "@%s and @%s both write global @%s" fa fb g
  | Global_read_write (fa, fb, g) ->
      Printf.sprintf "@%s writes global @%s that @%s reads" fa g fb
  | Unknown_effects (f, reasons) ->
      Printf.sprintf "@%s has unknown effects (%s)" f
        (String.concat ", " reasons)

let verdict_to_string = function
  | Safe -> "safe"
  | Unsafe cs ->
      Printf.sprintf "unsafe:\n%s"
        (String.concat "\n"
           (List.map (fun c -> "  " ^ conflict_to_string c) cs))

let conflict_to_json =
  let open Support.Json in
  let pair kind fa fb g =
    Obj [ ("kind", Str kind); ("a", Str fa); ("b", Str fb); ("global", Str g) ]
  in
  function
  | Global_write_write (fa, fb, g) -> pair "write-write" fa fb g
  | Global_read_write (fa, fb, g) -> pair "read-write" fa fb g
  | Unknown_effects (f, reasons) ->
      Obj
        [
          ("kind", Str "unknown-effects");
          ("function", Str f);
          ("reasons", (list string).enc reasons);
        ]

let to_json v =
  let open Support.Json in
  to_string
    (match v with
    | Safe -> Obj [ ("verdict", Str "safe") ]
    | Unsafe cs ->
        Obj
          [
            ("verdict", Str "unsafe");
            ("conflicts", List (List.map conflict_to_json cs));
          ])

let check ?effects (m : Lmodule.t) : verdict =
  match m.Lmodule.funcs with
  | [] | [ _ ] -> Safe
  | funcs ->
      let eff =
        match effects with
        | Some e -> e
        | None -> Analysis.effects ~am:(Analysis.create ()) m
      in
      let fps =
        List.filter_map
          (fun (f : Lmodule.func) ->
            Option.map
              (fun fp -> (f.Lmodule.fname, fp))
              (Effects.footprint eff f.Lmodule.fname))
          funcs
      in
      let conflicts = ref [] in
      let add c = conflicts := c :: !conflicts in
      (* open footprints conflict with everything *)
      List.iter
        (fun (fn, fp) ->
          if not (Effects.closed fp) then
            add (Unknown_effects (fn, fp.Effects.fp_unknown)))
        fps;
      (* pairwise global overlap with at least one writer *)
      let rec pairs = function
        | [] -> ()
        | (fa, fpa) :: rest ->
            List.iter
              (fun (fb, fpb) ->
                Sym.Map.iter
                  (fun g ma ->
                    let mb = Effects.global_mode fpb g in
                    let gname = Sym.name g in
                    if Effects.writes ma && Effects.writes mb then
                      add (Global_write_write (fa, fb, gname))
                    else if Effects.writes ma && Effects.reads mb then
                      add (Global_read_write (fa, fb, gname))
                    else if Effects.reads ma && Effects.writes mb then
                      add (Global_read_write (fb, fa, gname)))
                  fpa.Effects.fp_globals)
              rest;
            pairs rest
      in
      pairs fps;
      (* deterministic order: the functions came in module order, so a
         stable sort on the rendered form is reproducible *)
      let cs =
        List.sort_uniq
          (fun a b -> compare (conflict_to_string a) (conflict_to_string b))
          (List.rev !conflicts)
      in
      if cs = [] then Safe else Unsafe cs
