(* Diagnostics: the one reporting path shared by every rule and
   analysis.

   Suppression happens here, once, for everything: a finding whose
   location carries the [Source.allow_tag] (on the line or the line
   above) is dropped at [add] time, so every rule and both headline
   analyses honor the same tag without each re-checking.

   A sink deduplicates as findings arrive — the key is (file, line,
   rule), so a rule that trips on several sub-expressions of one line
   (both arguments of a polymorphic compare, say) reports once — and
   [to_list] returns them in a total order (file, line, col, rule,
   message), so the emitted report is identical across runs regardless
   of cmt discovery order.

   The JSON report is SARIF-lite: a fixed top-level shape with a
   [findings] array, hand-rolled with a fixed key order and no
   timestamps so two runs over the same tree are byte-identical. *)

type t = {
  d_rule : string;
  d_file : string;
  d_line : int;
  d_col : int;
  d_message : string;
}

type sink = {
  mutable findings : t list; (* newest first *)
  seen : (string * int * string, unit) Hashtbl.t; (* file, line, rule *)
}

let create_sink () = { findings = []; seen = Hashtbl.create 64 }

let add sink ~rule ~loc message =
  let file = loc.Location.loc_start.Lexing.pos_fname in
  let line = loc.Location.loc_start.Lexing.pos_lnum in
  let col =
    loc.Location.loc_start.Lexing.pos_cnum - loc.Location.loc_start.Lexing.pos_bol
  in
  let key = (file, line, rule) in
  if (not (Source.allowed loc)) && not (Hashtbl.mem sink.seen key) then begin
    Hashtbl.replace sink.seen key ();
    sink.findings <-
      { d_rule = rule; d_file = file; d_line = line; d_col = col;
        d_message = message }
      :: sink.findings
  end

let addf sink ~rule ~loc fmt = Format.kasprintf (add sink ~rule ~loc) fmt

let compare_diag a b =
  let c = compare a.d_file b.d_file in
  if c <> 0 then c
  else
    let c = compare a.d_line b.d_line in
    if c <> 0 then c
    else
      let c = compare a.d_col b.d_col in
      if c <> 0 then c
      else
        let c = compare a.d_rule b.d_rule in
        if c <> 0 then c else compare a.d_message b.d_message

let to_list sink = List.sort compare_diag sink.findings

let pp ppf d =
  Format.fprintf ppf "File \"%s\", line %d, characters %d-%d:@.Error (%s): %s"
    d.d_file d.d_line d.d_col d.d_col d.d_rule d.d_message

(* --- JSON emission -------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let report_json diags =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"version\": \"1\",\n";
  Buffer.add_string b "  \"tool\": \"repro-analysis\",\n";
  Buffer.add_string b "  \"findings\": [";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    {\"rule\": \"%s\", \"file\": \"%s\", \"line\": %d, \
            \"col\": %d, \"message\": \"%s\"}"
           (escape d.d_rule) (escape d.d_file) d.d_line d.d_col
           (escape d.d_message)))
    diags;
  if diags <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "]\n}\n";
  Buffer.contents b
