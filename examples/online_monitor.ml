(* Live monitoring: correlate causal paths while the service runs and catch
   a regression the moment it appears.

   A Database_Lock fault strikes the running auction site halfway through
   the session. The online correlator (attached directly to the tracing
   probe) turns activities into causal paths in real time, and the
   streaming detector - which learns its baseline from the healthy
   up-ramp - watches each pattern's latency-percentage profile, mix,
   latency and throughput: no offline analysis step, no resource
   monitoring.

     dune exec examples/online_monitor.exe *)

module Service = Tiersim.Service
module S = Tiersim.Scenario
module Faults = Tiersim.Faults
module ST = Simnet.Sim_time
module Detector = Diagnose.Detector

let () =
  let time_scale = 0.1 in
  let up, runtime, down = S.stage_spans ~time_scale in
  let onset = ST.span_add up (ST.span_scale 0.5 runtime) in
  let measure_from, measure_until = S.runtime_session ~time_scale in
  Format.printf "running 300 clients; Database_Lock strikes at t=%a@.@." ST.pp_span onset;

  let cfg =
    {
      Service.default_config with
      Service.faults = [ Faults.database_lock ];
      fault_onset = Some onset;
    }
  in
  let svc = Service.create cfg in
  Trace.Probe.enable (Service.probe svc);
  let engine = Service.engine svc in

  (* Freeze the inline-learned baseline at the end of the up-ramp, and
     judge only paths completing inside the runtime session: the ramps
     legitimately run below baseline throughput. *)
  let detector =
    Detector.create
      ~config:{ Detector.default_config with freeze_after = Some measure_from }
      ~now:(fun () -> Simnet.Engine.now engine)
      ()
  in
  let paths_done = ref 0 in
  let correlator_cfg =
    Core.Correlator.config ~transform:(Service.transform_config svc) ()
  in
  let online =
    Core.Online.attach ~config:correlator_cfg ~probe:(Service.probe svc)
      ~hosts:(Service.server_hostnames svc)
      ~on_path:(fun cag ->
        incr paths_done;
        let now = Simnet.Engine.now engine in
        if
          ST.compare now measure_until <= 0
          && ((not (Detector.warmed detector)) || ST.compare now measure_from >= 0)
        then
          List.iter
            (fun v ->
              Format.printf "!! path #%d  ALERT %a@." !paths_done Detector.pp_verdict v)
            (Detector.observe detector cag))
      ()
  in

  let stop = ST.add (ST.add (ST.add ST.zero up) runtime) down in
  Tiersim.Client.start svc
    {
      Tiersim.Client.count = 300;
      mix = Tiersim.Workload.Browse_only;
      ramp_up = up;
      stop_issuing_at = stop;
      only_kind = None;
    };
  Simnet.Engine.run engine;
  Core.Online.finish online;

  let verdicts = Detector.verdicts detector in
  Format.printf "@.run complete: %d paths correlated live, %d alerts@." !paths_done
    (List.length verdicts);
  match List.find_map (fun (v : Detector.verdict) -> v.Detector.culprit) verdicts with
  | None -> Format.printf "no culprit named (unexpected!)@."
  | Some culprit ->
      Format.printf "first culprit named: %s - the injected fault's home.@."
        (Core.Analysis.subject_label culprit)
