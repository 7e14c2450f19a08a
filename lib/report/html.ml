(* Renders loaded journals into a self-contained HTML dashboard: one
   <style> block, inline SVG sparklines, zero external references (no
   scripts, no fonts, no CDNs) — the page must open identically from a CI
   artifact tarball or a mail attachment. Rendering is a pure function of
   the journal contents (stable ordering, fixed float formats), which the
   golden test relies on byte-for-byte. *)

let esc s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let short_key k = if String.length k > 12 then String.sub k 0 12 else k

let pct x = Printf.sprintf "%.1f" (100. *. x)

(* ---- sparklines ---- *)

(* A fixed-size polyline over the points, normalized to the value range.
   Flat series draw a midline. Coordinates print with one decimal, so the
   same points always produce the same bytes. A single-point series (one
   forced sample from a sub-interval solve) renders as a full-width flat
   line — same bytes as a two-point flat series — rather than an empty
   SVG. *)
let rec sparkline pts =
  match pts with
  | [] -> ""
  | [ (t, v) ] -> sparkline [ (t, v); (t +. 1., v) ]
  | pts ->
    let w = 140. and h = 26. in
    let ts = List.map fst pts and vs = List.map snd pts in
    let tmin = List.fold_left Float.min (List.hd ts) ts in
    let tmax = List.fold_left Float.max (List.hd ts) ts in
    let vmin = List.fold_left Float.min (List.hd vs) vs in
    let vmax = List.fold_left Float.max (List.hd vs) vs in
    let dt = if tmax -. tmin > 1e-12 then tmax -. tmin else 1. in
    let dv = if vmax -. vmin > 1e-12 then vmax -. vmin else 1. in
    let coords =
      List.map
        (fun (t, v) ->
          let x = 1. +. ((t -. tmin) /. dt *. (w -. 2.)) in
          let y = h -. 2. -. ((v -. vmin) /. dv *. (h -. 4.)) in
          Printf.sprintf "%.1f,%.1f" x y)
        pts
    in
    Printf.sprintf
      "<svg class=\"spark\" width=\"%.0f\" height=\"%.0f\" \
       viewBox=\"0 0 %.0f %.0f\"><polyline points=\"%s\" fill=\"none\" \
       stroke=\"#2c6fbb\" stroke-width=\"1.2\"/></svg>"
      w h w h (String.concat " " coords)

(* ---- obligations ---- *)

let verdict_class = function "bug" -> "bug" | _ -> "clean"

let render_obligation_row buf ~max_wall (o : Journal.obligation) =
  let frac = if max_wall > 1e-12 then o.Journal.ob_wall_s /. max_wall else 0. in
  Buffer.add_string buf "<tr>";
  Printf.bprintf buf "<td>%s</td>" (esc o.Journal.ob_design);
  Printf.bprintf buf "<td>%s%s</td>" (esc o.Journal.ob_name)
    (if o.Journal.ob_cached then " <span class=\"cached\">cached</span>"
     else "");
  Printf.bprintf buf "<td>%s</td>" (esc o.Journal.ob_check);
  Printf.bprintf buf "<td><span class=\"v %s\">%s</span> @%d</td>"
    (verdict_class o.Journal.ob_verdict)
    (esc o.Journal.ob_verdict) o.Journal.ob_depth;
  Printf.bprintf buf "<td>%s</td>" (esc o.Journal.ob_certificate);
  Printf.bprintf buf
    "<td class=\"num\">%.3f<div class=\"bar\"><div style=\"width:%s%%\">\
     </div></div></td>"
    o.Journal.ob_wall_s (pct frac);
  (match o.Journal.ob_reduce with
   | Some r ->
     Printf.bprintf buf "<td class=\"num\">%d&#8594;%d</td>"
       r.Journal.nodes_before r.Journal.nodes_after
   | None ->
     Printf.bprintf buf "<td class=\"num\">%d</td>" o.Journal.ob_aig_nodes);
  (match o.Journal.ob_solver with
   | Some s ->
     Printf.bprintf buf
       "<td class=\"num\">%d</td><td class=\"num\">%d</td>\
        <td class=\"num\">%d/%d/%d</td><td class=\"num\">%d</td>"
       s.Journal.conflicts s.Journal.restarts s.Journal.lbd_core
       s.Journal.lbd_mid s.Journal.lbd_local s.Journal.vivified
   | None ->
     Buffer.add_string buf
       "<td class=\"num\">-</td><td class=\"num\">-</td>\
        <td class=\"num\">-</td><td class=\"num\">-</td>");
  Printf.bprintf buf "<td>%s</td>" (esc o.Journal.ob_winner);
  Printf.bprintf buf "<td><code title=\"%s\">%s</code></td>"
    (esc o.Journal.ob_key)
    (esc (short_key o.Journal.ob_key));
  (* One sparkline per sampled series, labelled; empty cell when the run
     sampled nothing (sampler off or solve faster than the interval). *)
  Buffer.add_string buf "<td class=\"sparks\">";
  List.iter
    (fun (name, pts) ->
      let svg = sparkline pts in
      if svg <> "" then
        Printf.bprintf buf
          "<div class=\"sp\"><span>%s</span>%s</div>" (esc name) svg)
    o.Journal.ob_series;
  Buffer.add_string buf "</td>";
  Buffer.add_string buf "</tr>\n"

let render_obligations buf (obs : Journal.obligation list) =
  if obs <> [] then begin
    let max_wall =
      List.fold_left (fun m o -> Float.max m o.Journal.ob_wall_s) 0. obs
    in
    Buffer.add_string buf "<h2>Obligations</h2>\n<table>\n<thead><tr>";
    List.iter
      (fun h -> Printf.bprintf buf "<th>%s</th>" h)
      [ "design"; "obligation"; "check"; "verdict"; "certificate"; "wall (s)";
        "nodes"; "conflicts"; "restarts"; "lbd c/m/l"; "vivified"; "winner";
        "key"; "solver time-series" ];
    Buffer.add_string buf "</tr></thead>\n<tbody>\n";
    List.iter (render_obligation_row buf ~max_wall) obs;
    Buffer.add_string buf "</tbody>\n</table>\n"
  end

(* ---- mutants ---- *)

let render_mutants buf (mus : Journal.mutant list) =
  if mus <> [] then begin
    let count p = List.length (List.filter p mus) in
    let killed = count (fun m -> m.Journal.mu_status = "killed") in
    let survived = count (fun m -> m.Journal.mu_status = "survived") in
    let screened =
      count (fun m ->
          String.length m.Journal.mu_status >= 8
          && String.sub m.Journal.mu_status 0 8 = "screened")
    in
    let checked = killed + survived in
    let score =
      if checked = 0 then 1.0 else float_of_int killed /. float_of_int checked
    in
    Buffer.add_string buf "<h2>Mutation campaign</h2>\n";
    Printf.bprintf buf
      "<p>%d mutants: <b>%d killed</b>, <b class=\"%s\">%d survived</b>, \
       %d screened equivalent &#8212; score %s%%</p>\n"
      (List.length mus) killed
      (if survived > 0 then "bug" else "proved")
      survived screened (pct score);
    Buffer.add_string buf "<table>\n<thead><tr>";
    List.iter
      (fun h -> Printf.bprintf buf "<th>%s</th>" h)
      [ "design"; "mutant"; "op"; "site"; "status"; "killed by"; "depth";
        "screen (s)"; "checks (s)" ];
    Buffer.add_string buf "</tr></thead>\n<tbody>\n";
    List.iter
      (fun (m : Journal.mutant) ->
        Printf.bprintf buf
          "<tr class=\"%s\"><td>%s</td><td><code>%s</code></td><td>%s</td>\
           <td>%s</td><td>%s</td><td>%s</td><td class=\"num\">%s</td>\
           <td class=\"num\">%.3f</td><td class=\"num\">%.3f</td></tr>\n"
          (if m.Journal.mu_status = "survived" then "survivor" else "")
          (esc m.Journal.mu_design) (esc m.Journal.mu_id)
          (esc m.Journal.mu_op) (esc m.Journal.mu_site)
          (esc m.Journal.mu_status)
          (match m.Journal.mu_killed_by with Some c -> esc c | None -> "-")
          (match m.Journal.mu_kill_depth with
           | Some d -> string_of_int d
           | None -> "-")
          m.Journal.mu_screen_s m.Journal.mu_checks_s)
      mus;
    Buffer.add_string buf "</tbody>\n</table>\n"
  end

(* ---- meta ---- *)

let render_meta buf (ms : Journal.meta list) =
  if ms <> [] then begin
    Buffer.add_string buf "<h2>Runs</h2>\n<table>\n<thead><tr>";
    List.iter
      (fun h -> Printf.bprintf buf "<th>%s</th>" h)
      [ "command"; "design"; "git rev"; "jobs"; "seed"; "flags" ];
    Buffer.add_string buf "</tr></thead>\n<tbody>\n";
    List.iter
      (fun (m : Journal.meta) ->
        Printf.bprintf buf
          "<tr><td>%s</td><td>%s</td><td><code>%s</code></td>\
           <td class=\"num\">%d</td><td class=\"num\">%d</td>\
           <td>%s</td></tr>\n"
          (esc m.Journal.command) (esc m.Journal.design)
          (esc m.Journal.git_rev) m.Journal.jobs m.Journal.seed
          (esc (String.concat " " m.Journal.flags)))
      ms;
    Buffer.add_string buf "</tbody>\n</table>\n"
  end

let style =
  "body{font:14px/1.45 system-ui,sans-serif;margin:24px;color:#1a1a2e}\n\
   h1{font-size:20px}h2{font-size:16px;margin-top:28px}\n\
   table{border-collapse:collapse;width:100%}\n\
   th,td{border:1px solid #d6d9e0;padding:4px 8px;text-align:left;\
   vertical-align:top}\n\
   th{background:#eef1f6;font-weight:600}\n\
   td.num{text-align:right;font-variant-numeric:tabular-nums}\n\
   code{font:12px ui-monospace,monospace;background:#f4f5f8;padding:0 3px}\n\
   .v{font-weight:600}.v.bug,b.bug{color:#b3261e}.v.clean{color:#2c6fbb}\n\
   .v.proved,b.proved{color:#1e7f4f}\n\
   .cached{color:#777;font-size:11px}\n\
   .bar{height:4px;background:#eef1f6;margin-top:2px}\n\
   .bar div{height:4px;background:#2c6fbb}\n\
   .sparks .sp{white-space:nowrap}\n\
   .sparks span{display:inline-block;width:110px;font-size:11px;\
   color:#555}\n\
   svg.spark{vertical-align:middle}\n\
   tr.survivor{background:#fbeceb}\n"

let render (journals : Journal.t list) =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\"/>\n";
  Buffer.add_string buf "<title>A-QED verification report</title>\n<style>\n";
  Buffer.add_string buf style;
  Buffer.add_string buf "</style>\n</head>\n<body>\n";
  Buffer.add_string buf "<h1>A-QED verification report</h1>\n";
  List.iter
    (fun (j : Journal.t) ->
      Printf.bprintf buf "<p class=\"src\">journal: <code>%s</code> \
                          (%d obligations, %d mutants)</p>\n"
        (esc (Filename.basename j.Journal.path))
        (List.length j.Journal.obligations)
        (List.length j.Journal.mutants))
    journals;
  let metas = List.concat_map (fun j -> j.Journal.meta) journals in
  let obs = List.concat_map (fun j -> j.Journal.obligations) journals in
  let mus = List.concat_map (fun j -> j.Journal.mutants) journals in
  render_meta buf metas;
  render_obligations buf obs;
  render_mutants buf mus;
  Buffer.add_string buf "</body>\n</html>\n";
  Buffer.contents buf

(* ---- plain-text summary ---- *)

let summary (journals : Journal.t list) =
  let buf = Buffer.create 1024 in
  let obs = List.concat_map (fun j -> j.Journal.obligations) journals in
  let mus = List.concat_map (fun j -> j.Journal.mutants) journals in
  let total_wall =
    List.fold_left (fun a o -> a +. o.Journal.ob_wall_s) 0. obs
  in
  let bugs =
    List.length (List.filter (fun o -> o.Journal.ob_verdict = "bug") obs)
  in
  Printf.bprintf buf "%d obligations, %.3fs solve time, %d bug(s)\n"
    (List.length obs) total_wall bugs;
  let emit_ob (o : Journal.obligation) =
    Printf.bprintf buf "  %-30s %-4s %s@%d %8.3fs%s %s\n"
      (o.Journal.ob_design ^ "/" ^ o.Journal.ob_name)
      o.Journal.ob_check o.Journal.ob_verdict o.Journal.ob_depth
      o.Journal.ob_wall_s
      (if o.Journal.ob_cached then " (cached)" else "")
      (if o.Journal.ob_certificate = "none" then ""
       else "[" ^ o.Journal.ob_certificate ^ "]")
  in
  (* A multi-run (appended) journal lists each run under its own meta so
     obligations read against the configuration that produced them;
     single-run and hand-built journals keep the flat listing. *)
  List.iter
    (fun (j : Journal.t) ->
      match j.Journal.runs with
      | [] | [ _ ] -> List.iter emit_ob j.Journal.obligations
      | runs ->
        List.iteri
          (fun i (r : Journal.run) ->
            let m = r.Journal.run_meta in
            Printf.bprintf buf " run %d/%d: %s %s\n" (i + 1)
              (List.length runs) m.Journal.command m.Journal.design;
            List.iter emit_ob r.Journal.run_obligations)
          runs)
    journals;
  if mus <> [] then begin
    let killed =
      List.length (List.filter (fun m -> m.Journal.mu_status = "killed") mus)
    in
    let survived =
      List.length
        (List.filter (fun m -> m.Journal.mu_status = "survived") mus)
    in
    Printf.bprintf buf "%d mutants: %d killed, %d survived, %d screened\n"
      (List.length mus) killed survived
      (List.length mus - killed - survived);
    List.iter
      (fun (m : Journal.mutant) ->
        if m.Journal.mu_status = "survived" then
          Printf.bprintf buf "  SURVIVOR %s (%s)\n" m.Journal.mu_id
            m.Journal.mu_site)
      mus
  end;
  Buffer.contents buf
