(** Test helper for the cache's cross-process safety: store a payload
    of [SIZE] copies of [BYTE] under [KEY] in the cache at [DIR],
    [ROUNDS] times, looking the key up after every store.  Exits 1 when
    a store fails or a lookup returns a payload that is not [SIZE]
    copies of one byte (a torn or mixed entry), else 0.

    Usage: [cache_writer DIR KEY BYTE SIZE ROUNDS] *)

module Cache = Mhls_driver.Cache

let () =
  match Sys.argv with
  | [| _; dir; key; byte; size; rounds |] ->
      let size = int_of_string size in
      let c = Cache.create ~dir in
      let mine = String.make size byte.[0] in
      let intact = function
        | None -> true
        | Some s -> String.length s = size && String.for_all (Char.equal s.[0]) s
      in
      let ok =
        try
          let ok = ref true in
          for _ = 1 to int_of_string rounds do
            Cache.store c key mine;
            if not (intact (Cache.find c key)) then ok := false
          done;
          !ok
        with _ -> false
      in
      exit (if ok then 0 else 1)
  | _ ->
      prerr_endline "usage: cache_writer DIR KEY BYTE SIZE ROUNDS";
      exit 2
