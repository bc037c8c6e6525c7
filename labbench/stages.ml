(* Per-stage virtual self time from a traced round's spans.

   The program's telescoping stage spans tile each request; inside a
   stage, LabMod and device spans nest. A stage's self time is its
   duration minus the part of its interval those child spans cover.
   Times are virtual ns. *)

let names =
  [ "inject_lag"; "submit"; "queue_wait"; "dispatch"; "module_stack"; "complete"; "reap" ]

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Returns, per stage name, the sorted per-request self times over every
   request with a root span; a request that skipped a stage counts 0 for
   it (so the stage means add up to the end-to-end mean), and one that
   passed a stage more than once, e.g. on a retry, counts the sum. *)
let self_times (evs : Lab_obs.Trace.ev list) =
  let by_id = Hashtbl.create 4096 in
  List.iter
    (fun (e : Lab_obs.Trace.ev) ->
      if e.ev_ph = 'X' then
        let l = Option.value (Hashtbl.find_opt by_id e.ev_id) ~default:[] in
        Hashtbl.replace by_id e.ev_id (e :: l))
    evs;
  let per_stage = List.map (fun n -> (n, ref [])) names in
  Hashtbl.iter
    (fun _ evs ->
      let is cat (e : Lab_obs.Trace.ev) = e.ev_cat = cat in
      if List.exists (is "request") evs then begin
        let children =
          List.filter_map
            (fun (e : Lab_obs.Trace.ev) ->
              if is "mod" e || is "device" e then Some (e.ev_ts, e.ev_ts +. e.ev_dur)
              else None)
            evs
        in
        List.iter
          (fun (name, acc) ->
            let self =
              List.fold_left
                (fun s (e : Lab_obs.Trace.ev) ->
                  if is "stage" e && e.ev_name = name then
                    let lo = e.ev_ts and hi = e.ev_ts +. e.ev_dur in
                    s +. e.ev_dur -. covered ~lo ~hi children
                  else s)
                0.0 evs
            in
            acc := self :: !acc)
          per_stage
      end)
    by_id;
  List.map
    (fun (name, acc) ->
      let a = Array.of_list !acc in
      Array.sort Float.compare a;
      (name, a))
    per_stage
