(* The per-tick idle spin that [Lab_sim.Engine]'s spinner replaced: one
   [Engine.wait period] event per poll until [poll] reports work or the
   budget runs out — the loop a runtime worker ran when its sweep found
   nothing. Kept once, as the reference the spinner is checked against
   (the spinner differential in test_sim and the idle row of
   `bench sim`). Returns whether [poll] found work; on [false] the
   clock stands at the first tick at or past [now + budget]. *)
let spin ~period ~budget poll =
  let deadline = Lab_sim.Engine.now_here () +. budget in
  let rec go () =
    if Lab_sim.Engine.now_here () >= deadline then false
    else begin
      Lab_sim.Engine.wait period;
      poll () || go ()
    end
  in
  go ()
