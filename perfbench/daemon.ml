(** The serve daemon under test, run as a forked child process.

    The fork happens before the benchmark process starts any domain
    (OCaml forbids forking after), so the daemon's domain pool and the
    client's allocations never stop each other for a minor GC.  The
    child runs exactly what [mhlsc serve --jobs N] runs: the
    {!Mhls_cli.Handlers} dispatcher on an oversubscribed driver
    session, behind {!Mhls_serve.Server.serve}. *)

module H = Mhls_cli.Handlers
module P = Mhls_serve.Protocol
module C = Mhls_serve.Client

type t = { pid : int; socket : string }

let jobs () = Domain.recommended_domain_count ()

(** Fork a daemon listening on [socket] (a path relative to the
    working directory, to stay under the socket-path length limit).
    The child exits on its own if the benchmark process disappears. *)
let start ~(socket : string) : t =
  flush_all ();
  let parent = Unix.getpid () in
  match Unix.fork () with
  | 0 ->
      let code =
        try
          ignore
            (Thread.create
               (fun () ->
                 while true do
                   Thread.delay 0.5;
                   if Unix.getppid () <> parent then Unix._exit 5
                 done)
               ());
          let env = H.create_env ~jobs:(jobs ()) ~oversubscribe:true () in
          let config =
            {
              Mhls_serve.Server.default_config with
              Mhls_serve.Server.socket_path = Some socket;
              log = ignore;
            }
          in
          let r =
            Mhls_serve.Server.serve ~config
              ~counters:(fun () -> H.counters env)
              ~exec:(H.background env) ~dispatch:(H.dispatch env) ()
          in
          H.close_env env;
          match r with Ok () -> 0 | Error _ -> 3
        with _ -> 4
      in
      Unix._exit code
  | pid -> { pid; socket }

let connect (d : t) : C.t =
  match C.connect_unix ~retry_for:30.0 d.socket with
  | Ok c -> c
  | Error e -> failwith ("cannot connect to the daemon: " ^ e)

let request (c : C.t) (r : P.request) : P.reply =
  match C.request c r with Ok rep -> rep | Error e -> failwith ("serve: " ^ e)

let stats (d : t) : P.stats_resp option =
  let c = connect d in
  let r = request c P.Stats in
  C.close c;
  match r with P.Done (P.R_stats s) -> Some s | _ -> None

(** Peak resident set (VmHWM) of a process, in MB. *)
let vmhwm_mb (pid : int) : float =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              let v = String.trim v in
              let kb = String.sub v 0 (String.index v ' ') in
              float_of_string kb /. 1024.
          | _ -> acc)
        Float.nan
        (String.split_on_char '\n' text)

(** Ask the daemon to shut down and reap it; kill it if it does not
    exit within ten seconds. *)
let stop (d : t) : unit =
  (try
     let c = connect d in
     ignore (C.request c P.Shutdown);
     C.close c
   with _ -> ());
  let deadline = Clock.now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Clock.now () < deadline ->
        Thread.delay 0.02;
        reap ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ()
