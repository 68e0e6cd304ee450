(* Bit-for-bit determinism pins for the simulator backend.

   A fixed grid of fault-script seeds is run over all four stacks and the
   complete recorded history of each run is digested.  The digests are
   committed in [data/fuzz_pins.txt]; any refactor of the kernel seam, the
   network or the protocol layers that perturbs even one random draw or
   event-schedule interleaving changes a digest and fails here.

   Regenerate (only when a behaviour change is intended and reviewed) by
   running the test binary from this directory, so that [pins_file]
   resolves to the source file rather than to its copy under _build:

     dune build
     cd test && GCS_UPDATE_PINS=1 ../_build/default/test/main.exe test fuzz-pins *)

module Harness = Gc_fuzz.Harness
module Generator = Gc_faultgen.Generator
module Event = Gc_obs.Event
module Audit = Gc_obs.Audit
module Json = Gc_obs.Json

let nodes = 4
let horizon = 6_000.0
let casts = 12
let seeds = List.init 50 (fun i -> Int64.of_int (7_000 + i))
let pins_file = "data/fuzz_pins.txt"

let digest_events events =
  let buf = Buffer.create 65_536 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (Event.to_json e));
      Buffer.add_char buf '\n')
    events;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let run_cell stack seed =
  let script = Generator.generate ~seed ~nodes ~horizon () in
  let o = Harness.run ~casts ~stack script in
  if not (Audit.ok o.Harness.report) then
    Alcotest.failf "unwaived audit violation: stack=%s seed=%Ld"
      (Harness.stack_to_string stack) seed;
  digest_events o.Harness.events

let compute () =
  List.concat_map
    (fun stack ->
      List.map
        (fun seed ->
          Printf.sprintf "%s %Ld %s"
            (Harness.stack_to_string stack)
            seed (run_cell stack seed))
        seeds)
    Harness.all_stacks

let test_pins () =
  let lines = compute () in
  if Sys.getenv_opt "GCS_UPDATE_PINS" <> None then begin
    let oc = open_out pins_file in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    Printf.printf "wrote %d pins to %s\n" (List.length lines) pins_file
  end
  else begin
    let ic = open_in pins_file in
    let rec read acc =
      match input_line ic with
      | line -> read (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    let expected = read [] in
    close_in ic;
    Alcotest.(check int)
      "pin count" (List.length expected) (List.length lines);
    List.iter2
      (fun want got ->
        if want <> got then
          Alcotest.failf "sim trace changed: expected %S, got %S" want got)
      expected lines
  end

let suite =
  [
    ( "fuzz-pins",
      [
        Alcotest.test_case "50-seed x 4-stack sim traces bit-for-bit" `Slow
          test_pins;
      ] );
  ]
