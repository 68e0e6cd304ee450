(* Rule E2: metric names.  Recording takes the typed names declared in
   [Gc_obs.Metric], so the compiler already rejects a misspelt name or a
   counter recorded as a histogram.  What is left for the rule:

   - every string literal passed to a metric reader ([Metrics.counter m
     "net.frames_in"], [Metrics.quantile], ...) names a declared metric of
     the kind the reader implies — a typo there reads a series that never
     exists, and the dashboard silently flatlines.  Names are collected
     from the typed tree, descending into if/match arms;
   - the declarations match the DESIGN.md section 8 table, so doc and
     code cannot drift apart. *)

module D = Diagnostic
module Metric = Gc_obs.Metric

let is_string_type (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Path.name p = "string"
  | _ -> false

let check_unit (u : Typed_loader.unit_info) =
  let r =
    Typed_loader.build_resolver ~canon:u.Typed_loader.canon
      u.Typed_loader.structure
  in
  let declared = Metric.all () in
  let ds = ref [] in
  let check_name kind (name, loc) =
    let add ~suggestion msg =
      ds :=
        D.v ~file:u.Typed_loader.source ~line:(Typed_loader.line_of loc)
          ~rule:"E2" ~suggestion msg
        :: !ds
    in
    match List.assoc_opt name declared with
    | None ->
        add ~suggestion:"declare it in Gc_obs.Metric and DESIGN.md §8"
          (Printf.sprintf "metric %S is not declared" name)
    | Some k when k <> kind ->
        add ~suggestion:"fix the read or the declaration"
          (Printf.sprintf "metric %S is declared a %s but read as a %s here"
             name (Metric.kind_name k) (Metric.kind_name kind))
    | Some _ -> ()
  in
  let open Tast_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_apply (f, args) -> (
        match
          Option.bind (Typed_loader.head_canon r f) (fun h ->
              List.assoc_opt h Catalog.metric_readers)
        with
        | Some kind ->
            List.iter
              (fun (_, a) ->
                match a with
                | Some (arg : Typedtree.expression)
                  when is_string_type arg.Typedtree.exp_type ->
                    List.iter (check_name kind)
                      (Typed_loader.string_literals arg)
                | _ -> ())
              args
        | None -> ())
    | _ -> ());
    default_iterator.expr sub e
  in
  let it = { default_iterator with expr } in
  it.structure it u.Typed_loader.structure;
  List.rev !ds

let check units = List.concat_map check_unit units

(* ---------- DESIGN.md drift check (repo mode only) ---------- *)

(* Parse the section 8 table: rows of the form
   [| `name` | layer | kind | ...].  Returns (name, kind) pairs;
   unknown kind words are reported verbatim. *)
let parse_design_table source =
  let rows = ref [] in
  (* only the section 8 table: rows outside "## 8" .. next "## " are other
     tables (ordering guarantees, fault plans) that happen to use the same
     markdown shape *)
  let in_section = ref false in
  List.iter
    (fun line ->
      let line = String.trim line in
      if String.length line >= 4 && String.sub line 0 3 = "## " then
        in_section := String.length line >= 5 && String.sub line 3 2 = "8.";
      if !in_section && String.length line > 1 && line.[0] = '|' then
        match String.split_on_char '|' line with
        | _ :: name_cell :: _layer :: kind_cell :: _ ->
            let name = String.trim name_cell in
            let kind = String.trim kind_cell in
            if
              String.length name > 2
              && name.[0] = '`'
              && name.[String.length name - 1] = '`'
            then
              rows :=
                (String.sub name 1 (String.length name - 2), kind) :: !rows
        | _ -> ())
    (String.split_on_char '\n' source);
  List.rev !rows

let check_design ~design_path source =
  let rows = parse_design_table source in
  let declared = Metric.all () in
  let ds = ref [] in
  let add msg suggestion =
    ds := D.v ~file:design_path ~line:1 ~rule:"E2" ~suggestion msg :: !ds
  in
  (* declarations -> table *)
  List.iter
    (fun (name, kind) ->
      match List.assoc_opt name rows with
      | None ->
          add
            (Printf.sprintf
               "metric %S is declared in Gc_obs.Metric but missing from the \
                DESIGN.md §8 table"
               name)
            "add the table row"
      | Some word when word = Metric.kind_name kind -> ()
      | Some word ->
          add
            (Printf.sprintf
               "metric %S is a %s in Gc_obs.Metric but %S in the DESIGN.md \
                §8 table"
               name (Metric.kind_name kind) word)
            "make the kinds agree")
    declared;
  (* table -> declarations *)
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name declared) then
        add
          (Printf.sprintf
             "metric %S is in the DESIGN.md §8 table but not declared in \
              Gc_obs.Metric"
             name)
          "declare it")
    rows;
  List.rev !ds
