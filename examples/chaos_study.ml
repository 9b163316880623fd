(* Chaos study: drive every scheme through its supported fault envelope
   under a one-copy consistency oracle, then step outside the envelope on
   purpose and watch the oracle catch the resulting violations — with a
   shrunken, replayable schedule for each.

   The envelopes (see Check.Chaos):
     - available copy / naive available copy: site failures + whole-system
       crashes + benign message faults (duplicate, reorder, jitter, delay);
     - voting / dynamic voting: benign message faults only.  The paper's
       one-round write (commit on votes, one unacknowledged update
       multicast — the 1+u message budget of Section 5) leaves a window
       where a voter crashes after its vote was counted but before the
       update reaches its disk; a read quorum formed later without the
       writer can then be jointly stale.  This study demonstrates exactly
       that, and also the classic broken-quorum configuration (read
       threshold 1). *)

let section title = Format.printf "@.== %s ==@.@." title

let () =
  section "Supported envelopes: 100 seeds per scheme, zero violations expected";
  let seeds = List.init 100 (fun i -> i + 1) in
  let rows =
    List.map
      (fun scheme ->
        let env = Check.Chaos.default_env scheme in
        let sweep = Check.Chaos.sweep ~shrink_failures:false env ~seeds in
        Report.Chaos_report.row_of_sweep ~label:(Blockrep.Types.scheme_to_string scheme) sweep)
      [
        Blockrep.Types.Voting;
        Blockrep.Types.Available_copy;
        Blockrep.Types.Naive_available_copy;
        Blockrep.Types.Dynamic_voting;
      ]
  in
  Format.printf "%a@." Report.Chaos_report.print rows;

  section "Outside the envelope: voting under site failures";
  let voting_with_failures =
    let base = Check.Chaos.default_env Blockrep.Types.Voting in
    { base with Check.Chaos.families = Check.Chaos.Failures :: base.Check.Chaos.families }
  in
  let env = voting_with_failures in
  let sweep = Check.Chaos.sweep env ~seeds:(List.init 40 (fun i -> i + 1)) in
  Format.printf "%a@."
    Report.Chaos_report.print
    [ Report.Chaos_report.row_of_sweep ~label:"voting+failures" sweep ];
  Format.printf "%a@." Report.Chaos_report.print_failure sweep;
  Format.printf
    "The shrunken schedule above is the vote-window race in its smallest form: a write@.\
     commits on votes while a voter is crashing, the update multicast never reaches the@.\
     voter's disk, and once the writer itself goes down the surviving sites form a read@.\
     quorum that is jointly stale.@.";

  section "Outside the envelope: weakened MCV (read threshold 1)";
  let env =
    { voting_with_failures with Check.Chaos.weaken_read = Some 1; weaken_write = Some 2 }
  in
  let sweep = Check.Chaos.sweep env ~seeds:(List.init 40 (fun i -> i + 1)) in
  Format.printf "%a@."
    Report.Chaos_report.print
    [ Report.Chaos_report.row_of_sweep ~label:"voting r=1 (unsafe)" sweep ];
  Format.printf "%a@." Report.Chaos_report.print_failure sweep;
  Format.printf
    "With a read threshold of 1 a read no longer intersects every write quorum, so a@.\
     failed-over client can be served from a copy the writes never reached.@."
