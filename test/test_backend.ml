(** Tests for the estimation backends: golden static reports
    (byte-exact), a digest of every rendered report over kernels ×
    flows × disciplines × directive sets, directed dynamic (elastic)
    behaviour — token round-trip II and FIFO costing — and an
    exhaustive DSE check that the backend-axis frontier weakly
    dominates the static-only frontier. *)

module B = Hls_backend.Backend
module E = Hls_backend.Estimate
module K = Workloads.Kernels
module O = Hls_backend.Op_model
module Sp = Mhls_dse.Space

let frontend ?(directives = K.pipelined) (k : K.kernel) =
  let lm, _, _ = Flow_util.frontend_exn (k.K.build directives) in
  lm

let render_static (k : K.kernel) =
  Hls_backend.Report.render (B.synthesize ~top:k.K.kname (frontend k))

(* ------------------------------------------------------------------ *)
(* Golden static reports                                              *)
(* ------------------------------------------------------------------ *)

(* These pin the exact bytes of the default `mhlsc synth` report, so a
   refactor of the static backend behind the signature cannot drift
   the output silently.  Update only with an intentional QoR change. *)

let golden_gemm =
  {golden|== Synthesis report for 'gemm' (clock 10.0 ns, 100 MHz) ==
  Latency: 18740 cycles (187.400 us)   Interval: 18741 cycles
+-------------------+------+--------+----------+-----------+----+--------+-------+
| loop              | trip | unroll | iter lat | pipelined | II | RecMII | total |
+-------------------+------+--------+----------+-----------+----+--------+-------+
| %loop1.header     |   16 |      1 |     1170 | no        |  - |      1 | 18738 |
|   %loop2.header   |   16 |      1 |       72 | no        |  - |      1 |  1170 |
|     %loop3.header |   16 |      1 |        9 | yes       |  4 |      4 |    71 |
+-------------------+------+--------+----------+-----------+----+--------+-------+
  Resources: BRAM_18K=3 DSP48=5 FF=1050 LUT=1058
  array %A          dims=16x16 (interface bram)
  array %B          dims=16x16 (interface bram)
  array %C          dims=16x16 (interface bram)
  WARNING: loop %loop3.header: target II=1 not met, achieved II=4 (RecMII=4, ResMII=1)
|golden}

let golden_fir =
  {golden|== Synthesis report for 'fir' (clock 10.0 ns, 100 MHz) ==
  Latency: 2341 cycles (23.410 us)   Interval: 2342 cycles
+-----------------+------+--------+----------+-----------+----+--------+-------+
| loop            | trip | unroll | iter lat | pipelined | II | RecMII | total |
+-----------------+------+--------+----------+-----------+----+--------+-------+
| %loop1.header   |   57 |      1 |       40 | no        |  - |      1 |  2339 |
|   %loop2.header |    8 |      1 |        9 | yes       |  4 |      4 |    39 |
+-----------------+------+--------+----------+-----------+----+--------+-------+
  Resources: BRAM_18K=3 DSP48=5 FF=950 LUT=1042
  array %x          dims=64 (interface bram)
  array %h          dims=8 (interface bram)
  array %y          dims=57 (interface bram)
  WARNING: loop %loop2.header: target II=1 not met, achieved II=4 (RecMII=4, ResMII=1)
|golden}

let find_kernel name =
  List.find (fun k -> k.K.kname = name) (K.all ())

let test_golden_gemm () =
  Alcotest.(check string)
    "gemm report bytes" golden_gemm
    (render_static (find_kernel "gemm"))

let test_golden_fir () =
  Alcotest.(check string)
    "fir report bytes" golden_fir
    (render_static (find_kernel "fir"))

(* ------------------------------------------------------------------ *)
(* Report digests: every kernel × flow × discipline × directive set  *)
(* ------------------------------------------------------------------ *)

(* MD5 of [Report.render] for all 14 kernels × {direct-ir, hls-cpp} ×
   {static, dynamic} × three directive sets: none, pipelined, and the
   first DSE point that both unrolls and partitions.  The goldens above
   show two static reports in full; this pins every other estimator
   output, so a refactor of the estimator cannot drift any of them.
   Update only with an intentional QoR change. *)
let report_digests =
  [
    ("gemm/direct-ir/static/none", "cd89ef149f821c8ac40a02df31a0d177");
    ("gemm/direct-ir/dynamic/none", "fff98c53fa98f021c9211557783c187a");
    ("gemm/hls-cpp/static/none", "b8289f948103ded8895dbc4563657569");
    ("gemm/hls-cpp/dynamic/none", "87f4083cc8f28cfada3471535f21ef19");
    ("gemm/direct-ir/static/pipelined", "5c3a9758ce06e322d84d31b9ea8fa0cc");
    ("gemm/direct-ir/dynamic/pipelined", "fff98c53fa98f021c9211557783c187a");
    ("gemm/hls-cpp/static/pipelined", "14c6d867f3477ed13da07477764a29bc");
    ("gemm/hls-cpp/dynamic/pipelined", "87f4083cc8f28cfada3471535f21ef19");
    ("gemm/direct-ir/static/dse", "7c9b88bcdcef4def73f683aec1898e7b");
    ("gemm/direct-ir/dynamic/dse", "9b3e829d31c0c5ac771da80031401c1f");
    ("gemm/hls-cpp/static/dse", "b831ef1db2fd1f733fd34aa6b9ff0afa");
    ("gemm/hls-cpp/dynamic/dse", "796e6e4b4e863f3ded462b13bd58d154");
    ("mm2/direct-ir/static/none", "323ba9e0b4d80710d7c522ca09c69851");
    ("mm2/direct-ir/dynamic/none", "080b042047f5d90accbf62c5ecff0826");
    ("mm2/hls-cpp/static/none", "2e9890ea99d8e97d5747887a51ddf32e");
    ("mm2/hls-cpp/dynamic/none", "62d1eaa73b486d3796dc7c6b989b328c");
    ("mm2/direct-ir/static/pipelined", "1779f6358206783b41e02265144170f3");
    ("mm2/direct-ir/dynamic/pipelined", "080b042047f5d90accbf62c5ecff0826");
    ("mm2/hls-cpp/static/pipelined", "f6f56c100f7ec0b0bb29d8ada576f896");
    ("mm2/hls-cpp/dynamic/pipelined", "62d1eaa73b486d3796dc7c6b989b328c");
    ("mm2/direct-ir/static/dse", "7d72c606c3fe8993397648f745ce4b52");
    ("mm2/direct-ir/dynamic/dse", "542c7c0be8c40cf65de5ad97e32d7680");
    ("mm2/hls-cpp/static/dse", "5c40adb4828a08cb385493232db06e89");
    ("mm2/hls-cpp/dynamic/dse", "c9d01ff20683f3de20f9dc9ac377321d");
    ("mm3/direct-ir/static/none", "de47d9ea8a87027c22e362d8ad6ce83e");
    ("mm3/direct-ir/dynamic/none", "c679f1a464f115b168a1320f4658b07e");
    ("mm3/hls-cpp/static/none", "64696cb42e589188371df6bee86c5854");
    ("mm3/hls-cpp/dynamic/none", "2f62d0f825879ec1cd8c8d3071791d59");
    ("mm3/direct-ir/static/pipelined", "18bf85d93a17ba3b13d5b764776b88df");
    ("mm3/direct-ir/dynamic/pipelined", "c679f1a464f115b168a1320f4658b07e");
    ("mm3/hls-cpp/static/pipelined", "38f41b8db4696cec324f93aea7d1d1df");
    ("mm3/hls-cpp/dynamic/pipelined", "2f62d0f825879ec1cd8c8d3071791d59");
    ("mm3/direct-ir/static/dse", "ed6500571f8a1a93e787142d8bf318af");
    ("mm3/direct-ir/dynamic/dse", "b67eeb70c7b8b2cbf39a4ce5a5f4918d");
    ("mm3/hls-cpp/static/dse", "a627a37c9153e783f5b8492d8f860928");
    ("mm3/hls-cpp/dynamic/dse", "aa324266847e6a9bcfc20daeb0a4e059");
    ("atax/direct-ir/static/none", "e65c6807b33fe2f9a3d3f706eedbf36d");
    ("atax/direct-ir/dynamic/none", "c72aa97a6f8ae7643e7a797cef899adc");
    ("atax/hls-cpp/static/none", "aba4be37f1b0c0f91b2bb3e64c7b29e3");
    ("atax/hls-cpp/dynamic/none", "a4be3654fae5534e604a16e488a3974d");
    ("atax/direct-ir/static/pipelined", "cb283644a2294a31403b9227977147fe");
    ("atax/direct-ir/dynamic/pipelined", "c72aa97a6f8ae7643e7a797cef899adc");
    ("atax/hls-cpp/static/pipelined", "cbb151eea73f68df2f3e6ad5bd109181");
    ("atax/hls-cpp/dynamic/pipelined", "a4be3654fae5534e604a16e488a3974d");
    ("atax/direct-ir/static/dse", "0e0f12f1ddc481f76a3558005f023dd0");
    ("atax/direct-ir/dynamic/dse", "92eaa7fdad91a78341944c3480873735");
    ("atax/hls-cpp/static/dse", "34983356bed9a4b22e2a07f5645cc92b");
    ("atax/hls-cpp/dynamic/dse", "7eaadb61c3df23332b66e58bbb25f670");
    ("bicg/direct-ir/static/none", "9fed9c7e01fd4097282c8e83f5527455");
    ("bicg/direct-ir/dynamic/none", "8af15c9e04b37b1bd135df6766933cfc");
    ("bicg/hls-cpp/static/none", "358aefb27e6e0b572276017d6101fc8b");
    ("bicg/hls-cpp/dynamic/none", "bfd40dfd6bc6671b018dc7f7bdfb58ed");
    ("bicg/direct-ir/static/pipelined", "bbacfeaf16bf99d5bbad1e03f9a644cf");
    ("bicg/direct-ir/dynamic/pipelined", "8af15c9e04b37b1bd135df6766933cfc");
    ("bicg/hls-cpp/static/pipelined", "dbb8e444263969ba7acb9897bd7f25d3");
    ("bicg/hls-cpp/dynamic/pipelined", "bfd40dfd6bc6671b018dc7f7bdfb58ed");
    ("bicg/direct-ir/static/dse", "85c32c31a5cf924687aae8337f941cdb");
    ("bicg/direct-ir/dynamic/dse", "dce8052440d8e1d656dd7ffdf6e706bf");
    ("bicg/hls-cpp/static/dse", "109fc0ba86f7412e61012e66928fdec6");
    ("bicg/hls-cpp/dynamic/dse", "c9d70ddc04dc9b6327d73ce31eed5e65");
    ("mvt/direct-ir/static/none", "c665ec9dfeac7035369db39fc91ad900");
    ("mvt/direct-ir/dynamic/none", "6e6cdb7a4b8e41608918f68233ffe2e1");
    ("mvt/hls-cpp/static/none", "e49ee467295333505c6bf442e2fc77c9");
    ("mvt/hls-cpp/dynamic/none", "b91e60ce02a6dc29851cb43e64c47f56");
    ("mvt/direct-ir/static/pipelined", "984c91435b598afd5ac1a77e45ac20d0");
    ("mvt/direct-ir/dynamic/pipelined", "6e6cdb7a4b8e41608918f68233ffe2e1");
    ("mvt/hls-cpp/static/pipelined", "1f0a55d9ec2d61924ba420a499e72dcb");
    ("mvt/hls-cpp/dynamic/pipelined", "b91e60ce02a6dc29851cb43e64c47f56");
    ("mvt/direct-ir/static/dse", "cef6d0ab27544e14b9c0f7a5f26405f2");
    ("mvt/direct-ir/dynamic/dse", "654437daaddd65b37ab8e32dddb60e92");
    ("mvt/hls-cpp/static/dse", "cc182c0fa2b34b763783cbf2dd762216");
    ("mvt/hls-cpp/dynamic/dse", "bc6c1b07c4fd61844569023c3ee2219f");
    ("gesummv/direct-ir/static/none", "4eb0472172e2631935a60bde62896cd7");
    ("gesummv/direct-ir/dynamic/none", "dbf63bae63b1a1d1d8a912f231e7a158");
    ("gesummv/hls-cpp/static/none", "9622f198d90d5b8706f965e6e68cef01");
    ("gesummv/hls-cpp/dynamic/none", "b9c295aa763dc8297a54eb0344437367");
    ("gesummv/direct-ir/static/pipelined", "1d23a98ae5b16d50fba5da17b2d44480");
    ("gesummv/direct-ir/dynamic/pipelined", "dbf63bae63b1a1d1d8a912f231e7a158");
    ("gesummv/hls-cpp/static/pipelined", "8d077eb70a940c51528c98b4db496351");
    ("gesummv/hls-cpp/dynamic/pipelined", "b9c295aa763dc8297a54eb0344437367");
    ("gesummv/direct-ir/static/dse", "bf2b6d71c57eb0421c690ea0d82f2da5");
    ("gesummv/direct-ir/dynamic/dse", "9a6d890efb8db4996540b5864c8d20a8");
    ("gesummv/hls-cpp/static/dse", "c7286dc1a791b3eeedb0cad6bc2dd062");
    ("gesummv/hls-cpp/dynamic/dse", "3ba64149300201235c7678f07f188def");
    ("fir/direct-ir/static/none", "a3b968fdcf9ec8636178f8c0cd388710");
    ("fir/direct-ir/dynamic/none", "bc5f4d4bbc8102cbb69921ae609c2edf");
    ("fir/hls-cpp/static/none", "c34431720a8d5d9c5f256d1f7bd87706");
    ("fir/hls-cpp/dynamic/none", "c3c31b96b668d6b0200b3e4f4338462c");
    ("fir/direct-ir/static/pipelined", "ffbe1aee8ac3375f4915aab5d6cd4aff");
    ("fir/direct-ir/dynamic/pipelined", "bc5f4d4bbc8102cbb69921ae609c2edf");
    ("fir/hls-cpp/static/pipelined", "6c52d3e5cfb9e68bbe3455d6e373a792");
    ("fir/hls-cpp/dynamic/pipelined", "c3c31b96b668d6b0200b3e4f4338462c");
    ("fir/direct-ir/static/dse", "2294517dd72db61f8bff28fa68d9eccb");
    ("fir/direct-ir/dynamic/dse", "247170385bfb11e3f7d4ca8745b349d2");
    ("fir/hls-cpp/static/dse", "c20d459e11996d7e52dbe353c5fa4463");
    ("fir/hls-cpp/dynamic/dse", "e9c2c074dc55924265d81918103a96fd");
    ("conv2d/direct-ir/static/none", "b68e3f4f3f32571a5f10040114ffc5a9");
    ("conv2d/direct-ir/dynamic/none", "af802fe2d573a9c7fe2e25e977b75e6b");
    ("conv2d/hls-cpp/static/none", "5bcc22f0a51036bfa101245a7148de59");
    ("conv2d/hls-cpp/dynamic/none", "61837a8db831fe805b033940f1810c35");
    ("conv2d/direct-ir/static/pipelined", "b2150ed2ff73de8baf8e5a9ee9b1c349");
    ("conv2d/direct-ir/dynamic/pipelined", "af802fe2d573a9c7fe2e25e977b75e6b");
    ("conv2d/hls-cpp/static/pipelined", "0854b7488f9892363b5397f37ecdc4fa");
    ("conv2d/hls-cpp/dynamic/pipelined", "61837a8db831fe805b033940f1810c35");
    ("conv2d/direct-ir/static/dse", "f9d54511962434e0bea5487a3dbb24e5");
    ("conv2d/direct-ir/dynamic/dse", "6cc6be1814147280ef32b9c100fc8abf");
    ("conv2d/hls-cpp/static/dse", "3070fcd45b461c88458c755775279dc9");
    ("conv2d/hls-cpp/dynamic/dse", "5d71835733d4fc4ff20fd73a4351d859");
    ("jacobi2d/direct-ir/static/none", "a1239d241d33279c2d81d7282313a697");
    ("jacobi2d/direct-ir/dynamic/none", "b73fdada6805bd4dd73c7fdaccbcdf2d");
    ("jacobi2d/hls-cpp/static/none", "5ee413affefae22249674d0570846782");
    ("jacobi2d/hls-cpp/dynamic/none", "35b375977bfd864688bc0d0f19de5cf7");
    ("jacobi2d/direct-ir/static/pipelined", "c1d459425c836a5d088b760bdd30d343");
    ("jacobi2d/direct-ir/dynamic/pipelined", "b73fdada6805bd4dd73c7fdaccbcdf2d");
    ("jacobi2d/hls-cpp/static/pipelined", "8fd628e301876e79e5c4c5b81046242e");
    ("jacobi2d/hls-cpp/dynamic/pipelined", "35b375977bfd864688bc0d0f19de5cf7");
    ("jacobi2d/direct-ir/static/dse", "667799dc326ac19bf9c1917ff07f0d5f");
    ("jacobi2d/direct-ir/dynamic/dse", "a513ce226b4b12fdf588fd7bea216809");
    ("jacobi2d/hls-cpp/static/dse", "3d01a8ec9d2eeac4c6be0e96607809df");
    ("jacobi2d/hls-cpp/dynamic/dse", "67332e13146603a2cb3fca448c2e5f5c");
    ("syrk/direct-ir/static/none", "21acb5c9eb75bd52ed6d0e2625d05d0b");
    ("syrk/direct-ir/dynamic/none", "8a7f35ac1a5ea0a1e1ecd0d516794767");
    ("syrk/hls-cpp/static/none", "57dee8741554cf0766534c6f2b53b180");
    ("syrk/hls-cpp/dynamic/none", "bc98bcc1eab4162542334f5a13e9f130");
    ("syrk/direct-ir/static/pipelined", "3bb00343d0d61574a01d4490a11ee155");
    ("syrk/direct-ir/dynamic/pipelined", "8a7f35ac1a5ea0a1e1ecd0d516794767");
    ("syrk/hls-cpp/static/pipelined", "a47bd04b59fe9bfb7b1d58205b9aa81c");
    ("syrk/hls-cpp/dynamic/pipelined", "bc98bcc1eab4162542334f5a13e9f130");
    ("syrk/direct-ir/static/dse", "112a8d6f5dd03fe205dd793c9a523a09");
    ("syrk/direct-ir/dynamic/dse", "80c708e22b6c016ddaf8e4dbd526582c");
    ("syrk/hls-cpp/static/dse", "d63d630d378d5786a58e9b0bdb5403b0");
    ("syrk/hls-cpp/dynamic/dse", "0e5db502b5a3728584632a06fa7f0879");
    ("doitgen/direct-ir/static/none", "e2dc2637827d8c402e566026d7ecb17d");
    ("doitgen/direct-ir/dynamic/none", "ad1878ab19baef8ca3fd5bc468abd1e4");
    ("doitgen/hls-cpp/static/none", "caf92682d479ef062513298d839b6e71");
    ("doitgen/hls-cpp/dynamic/none", "cd1f142af79a99bfc9afb9df0e762d0b");
    ("doitgen/direct-ir/static/pipelined", "1c10168140681541ac21828448a7191c");
    ("doitgen/direct-ir/dynamic/pipelined", "ad1878ab19baef8ca3fd5bc468abd1e4");
    ("doitgen/hls-cpp/static/pipelined", "16f60fd51363281c6511b404d3daea8e");
    ("doitgen/hls-cpp/dynamic/pipelined", "cd1f142af79a99bfc9afb9df0e762d0b");
    ("doitgen/direct-ir/static/dse", "249a08060c02bdc6fabb8d9cd3cf9259");
    ("doitgen/direct-ir/dynamic/dse", "f87fabd41103c5351678ffbe7149c548");
    ("doitgen/hls-cpp/static/dse", "116a2115fcd872ea4016799d375e4107");
    ("doitgen/hls-cpp/dynamic/dse", "1d6a1ddf617d81f0f388df93e058bb1d");
    ("seidel2d/direct-ir/static/none", "3f24648ab3df0dd5837e1ec504e243a5");
    ("seidel2d/direct-ir/dynamic/none", "4fca2229ae81188132ecf1068cd953bf");
    ("seidel2d/hls-cpp/static/none", "a9f055325a58bfda91f54d54bfd42e0f");
    ("seidel2d/hls-cpp/dynamic/none", "15c0297c52b0fd888d5b0e575f26ac85");
    ("seidel2d/direct-ir/static/pipelined", "c8280c0c843b76c3e0030660c0c5bdca");
    ("seidel2d/direct-ir/dynamic/pipelined", "4fca2229ae81188132ecf1068cd953bf");
    ("seidel2d/hls-cpp/static/pipelined", "9d33328c27b891504fc7747cf0ef42b2");
    ("seidel2d/hls-cpp/dynamic/pipelined", "15c0297c52b0fd888d5b0e575f26ac85");
    ("seidel2d/direct-ir/static/dse", "3abb1ca897d2ca587094019007add1cd");
    ("seidel2d/direct-ir/dynamic/dse", "fd6c959ee23ff038bb8d233b14e5f697");
    ("seidel2d/hls-cpp/static/dse", "d701f102b6cdb311cfb4188c46036c2f");
    ("seidel2d/hls-cpp/dynamic/dse", "bafd8d3b9ab172d6bfd228ae6835703c");
    ("mmcall/direct-ir/static/none", "80dd4e1f2562ced9c021d4d56b60a739");
    ("mmcall/direct-ir/dynamic/none", "13ab5c3099a6085057b27128bab843d3");
    ("mmcall/hls-cpp/static/none", "3934f0d0fc99896cdfbf430186c7e0d7");
    ("mmcall/hls-cpp/dynamic/none", "a9932b1d3a57426706fa31ee47cca8c6");
    ("mmcall/direct-ir/static/pipelined", "0ba02fecf070fc6168021bd1a88effab");
    ("mmcall/direct-ir/dynamic/pipelined", "13ab5c3099a6085057b27128bab843d3");
    ("mmcall/hls-cpp/static/pipelined", "587a458a61e98182c4d19e3717c6bd05");
    ("mmcall/hls-cpp/dynamic/pipelined", "a9932b1d3a57426706fa31ee47cca8c6");
    ("mmcall/direct-ir/static/dse", "70293ed212b700c1b0c7692a4cb25c39");
    ("mmcall/direct-ir/dynamic/dse", "b154e88b6282c34e32601ea223581281");
    ("mmcall/hls-cpp/static/dse", "b67096fe2118aa4d6a0adbd3066e373b");
    ("mmcall/hls-cpp/dynamic/dse", "609272803ceacd575d9b393dcfa44f53");
  ]

let directive_sets (k : K.kernel) =
  let sp = Sp.of_kernel k in
  let unrolled_and_partitioned (c : Sp.config) =
    c.Sp.c_unroll > 1 && List.exists (fun (_, f) -> f > 1) c.Sp.c_parts
  in
  [
    ("none", K.no_directives);
    ("pipelined", K.pipelined);
    ("dse", Sp.to_directives sp (List.find unrolled_and_partitioned (Sp.enumerate sp)));
  ]

let test_report_digests () =
  let cells = ref 0 and mismatches = ref 0 in
  List.iter
    (fun k ->
      List.iter
        (fun (dname, directives) ->
          List.iter
            (fun kind ->
              List.iter
                (fun sched ->
                  let key =
                    String.concat "/"
                      [ k.K.kname; Flow.flow_name kind; B.sched_name sched; dname ]
                  in
                  let text =
                    Hls_backend.Report.render
                      (Flow.run_exn ~directives ~sched k kind).Flow.hls
                  in
                  let got = Digest.to_hex (Digest.string text) in
                  incr cells;
                  if List.assoc_opt key report_digests <> Some got then begin
                    incr mismatches;
                    Printf.printf "report digest mismatch: %s (got %s)\n%s\n" key got
                      text
                  end)
                B.all_scheds)
            [ Flow.Direct_ir; Flow.Hls_cpp ])
        (directive_sets k))
    (K.all ());
  Alcotest.(check int) "every table entry computed" (List.length report_digests) !cells;
  Alcotest.(check int) "digest mismatches" 0 !mismatches

(* ------------------------------------------------------------------ *)
(* Report digest over a seeded sample of DSE points                   *)
(* ------------------------------------------------------------------ *)

(* The 168 digests pin three directive sets per kernel and no Middle
   point, where replication is largest.  This pins one digest over the
   rendered reports of a seeded sample of each kernel's
   [Space.enumerate] points: two Middle points, two Inner points at
   unroll 8 (the largest unroll when the axis stops below 8) and two
   drawn from the whole space, each on both flows under both
   disciplines — 14 kernels x 6 points x 4 = 336 reports.  Computed
   with the estimator before its graph became int arrays.  Update only
   with an intentional QoR change. *)
let sampled_points_digest = "480c0f231f882098ab7c8ce7ab81d1a4"

let sampled_points (k : K.kernel) =
  let sp = Sp.of_kernel k in
  let all = Sp.enumerate sp in
  let top_unroll = List.fold_left max 1 sp.Sp.sp_unrolls in
  let middle = List.filter (fun c -> c.Sp.c_strategy = K.Middle) all in
  let wide =
    List.filter
      (fun c -> c.Sp.c_strategy = K.Inner && c.Sp.c_unroll = min 8 top_unroll)
      all
  in
  (* a fixed linear congruential sequence, independent of [Random];
     each draw takes a point out of its list *)
  let state = ref (Hashtbl.hash k.K.kname land 0xffff) in
  let draw xs =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    let c = List.nth !xs (!state mod List.length !xs) in
    xs := List.filter (fun c' -> c' != c) !xs;
    c
  in
  let middle = ref middle and wide = ref wide and all = ref all in
  let picks =
    [ draw middle; draw middle; draw wide; draw wide; draw all; draw all ]
  in
  (sp, picks)

let test_sampled_points_digest () =
  let b = Buffer.create (1 lsl 16) and n = ref 0 in
  List.iter
    (fun k ->
      let sp, picks = sampled_points k in
      List.iter
        (fun c ->
          let directives = Sp.to_directives sp c in
          List.iter
            (fun kind ->
              List.iter
                (fun sched ->
                  let r = (Flow.run_exn ~directives ~sched k kind).Flow.hls in
                  incr n;
                  Printf.bprintf b "%s/%s/%s/%s\n%s" k.K.kname (Sp.describe c)
                    (Flow.flow_name kind) (B.sched_name sched)
                    (Hls_backend.Report.render r))
                B.all_scheds)
            [ Flow.Direct_ir; Flow.Hls_cpp ])
        picks)
    (K.all ());
  Alcotest.(check int) "reports" 336 !n;
  Alcotest.(check string) "digest of the sampled reports" sampled_points_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ------------------------------------------------------------------ *)
(* Carried values                                                     *)
(* ------------------------------------------------------------------ *)

(* A loop carrying two values, where one adder reads both: it closes
   the first value's recurrence (a 4-cycle fadd) while it reads the
   second, whose own recurrence is a 3-cycle fmul.  Each carry's path
   must start at every node that reads it. *)
let two_carries_mlir =
  {|module {
func.func @two(%0: memref<8xf32>, %1: memref<2xf32>) -> () {
  %2 = "arith.constant"() {value = 0.0} : () -> (f32)
  %3 = "arith.constant"() {value = 1.0} : () -> (f32)
  %10, %11 = "affine.for"(%2, %3) {hls.pipeline = 1, lower_map = affine_map<() -> (0)>, upper_map = affine_map<() -> (8)>, step = 1, lower_operands = 0} ({
    ^bb(%4: index, %5: f32, %6: f32):
      %7 = "affine.load"(%0, %4) {map = affine_map<(d0) -> (d0)>} : (memref<8xf32>, index) -> (f32)
      %8 = "arith.addf"(%5, %6) : (f32, f32) -> (f32)
      %9 = "arith.mulf"(%6, %7) : (f32, f32) -> (f32)
      "affine.yield"(%8, %9) : (f32, f32) -> ()
  }) : (f32, f32) -> (f32, f32)
  %12 = "arith.constant"() {value = 0} : () -> (index)
  %13 = "arith.constant"() {value = 1} : () -> (index)
  "memref.store"(%10, %1, %12) : (f32, memref<2xf32>, index) -> ()
  "memref.store"(%11, %1, %13) : (f32, memref<2xf32>, index) -> ()
  "func.return"() : () -> ()
}
}
|}

let test_two_carries () =
  List.iter
    (fun kind ->
      let m = Mhir.Parser.parse_module two_carries_mlir in
      let lm =
        match kind with
        | Flow.Direct_ir ->
            let lm, _, _ = Flow_util.frontend_exn m in
            lm
        | Flow.Hls_cpp ->
            let lm, _, _ = Flow.hls_cpp_frontend m in
            lm
      in
      List.iter
        (fun (sched, ii) ->
          let what = Flow.flow_name kind ^ "/" ^ B.sched_name sched in
          match (B.synthesize ~sched ~top:"two" lm).E.loops with
          | [ l ] ->
              Alcotest.(check (option int)) (what ^ " II") (Some ii) l.E.achieved_ii;
              Alcotest.(check int) (what ^ " RecMII") ii l.E.rec_mii
          | _ -> Alcotest.failf "%s: expected one loop" what)
        [ (B.Static, 4); (B.Dynamic, 5) ])
    [ Flow.Direct_ir; Flow.Hls_cpp ]

let test_sched_name_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        ("sched_of_name (sched_name " ^ B.sched_name s ^ ")")
        true
        (B.sched_of_name (B.sched_name s) = Some s))
    B.all_scheds;
  Alcotest.(check bool) "unknown sched name" true (B.sched_of_name "vliw" = None)

(* ------------------------------------------------------------------ *)
(* Dynamic (elastic) backend: directed cases                          *)
(* ------------------------------------------------------------------ *)

(** Every built-in kernel schedules under the elastic backend and
    produces a complete, renderable report. *)
let test_dynamic_complete () =
  List.iter
    (fun k ->
      let lm = frontend k in
      let r = B.synthesize ~sched:B.Dynamic ~top:k.K.kname lm in
      Alcotest.(check bool) (k.K.kname ^ " latency positive") true (r.E.latency > 0);
      Alcotest.(check bool)
        (k.K.kname ^ " elastic fabric costed")
        true
        (r.E.resources.E.lut > 0 && r.E.resources.E.ff > 0);
      Alcotest.(check bool)
        (k.K.kname ^ " report renders")
        true
        (String.length (Hls_backend.Report.render r) > 0))
    (K.all ())

(** On gemm's loop-carried reduction the dynamic II comes from token
    round-trip time, which cannot beat the dependence recurrence the
    static scheduler measures: innermost RecMII must not shrink. *)
let test_dynamic_token_rtt_ii () =
  let k = find_kernel "gemm" in
  let lm = frontend k in
  let innermost (r : E.report) =
    List.fold_left
      (fun acc (l : E.loop_report) ->
        match acc with
        | Some (best : E.loop_report) when best.E.depth >= l.E.depth -> acc
        | _ -> Some l)
      None r.E.loops
    |> Option.get
  in
  let s = innermost (B.synthesize ~sched:B.Static ~top:k.K.kname lm) in
  let d = innermost (B.synthesize ~sched:B.Dynamic ~top:k.K.kname lm) in
  Alcotest.(check bool)
    "token RTT >= static RecMII" true
    (d.E.rec_mii >= s.E.rec_mii);
  Alcotest.(check bool)
    "reduction recurrence visible to elastic model" true (d.E.rec_mii > 1)

(** FIFO channel costing: BRAM monotone in depth and width, fabric
    (LUT/FF) strictly growing while the channel stays in distributed
    RAM, and storage moving to 18Kb BRAM past the capacity threshold. *)
let test_fifo_cost () =
  let bram ~depth ~bits =
    let b, _, _ = O.fifo_cost ~depth ~bits in
    b
  in
  (* BRAM monotone in depth at fixed width *)
  let rec check_depth prev d =
    if d <= 4096 then begin
      let b = bram ~depth:d ~bits:32 in
      Alcotest.(check bool)
        (Printf.sprintf "bram monotone depth=%d" d)
        true (b >= prev);
      check_depth b (d * 2)
    end
  in
  check_depth (bram ~depth:1 ~bits:32) 2;
  (* BRAM monotone in width at fixed depth *)
  Alcotest.(check bool) "bram monotone in bits" true
    (bram ~depth:32 ~bits:64 >= bram ~depth:32 ~bits:32);
  (* below the threshold storage is fabric: LUT/FF strictly increase *)
  let _, lut8, ff8 = O.fifo_cost ~depth:8 ~bits:32 in
  let _, lut16, ff16 = O.fifo_cost ~depth:16 ~bits:32 in
  Alcotest.(check int) "shallow fifo is fabric-only" 0 (bram ~depth:8 ~bits:32);
  Alcotest.(check bool) "fabric LUT grows with depth" true (lut16 > lut8);
  Alcotest.(check bool) "fabric FF grows with depth" true (ff16 > ff8);
  (* past the threshold the storage is BRAM blocks, ceil(capacity/18Kb) *)
  let over = (2 * O.fifo_bram_threshold_bits) / 32 in
  Alcotest.(check int) "threshold crossing allocates BRAM" 1
    (bram ~depth:over ~bits:32);
  Alcotest.(check int) "deep channel: capacity / 18Kb blocks" 2
    (bram ~depth:1024 ~bits:32)

(** The default elastic channel geometry stays below the BRAM
    threshold, so per-edge buffering costs fabric, not block RAM. *)
let test_default_channel_geometry () =
  let b, lut, ff = O.fifo_cost ~depth:B.channel_depth ~bits:B.channel_bits in
  Alcotest.(check int) "default channel is fabric" 0 b;
  Alcotest.(check bool) "default channel has cost" true (lut > 0 && ff > 0)

(* ------------------------------------------------------------------ *)
(* DSE: the backend axis can only improve the frontier                *)
(* ------------------------------------------------------------------ *)

module Se = Mhls_dse.Search
module Pa = Mhls_dse.Pareto

(** Exhaustively evaluate fir over the two-backend space, then check
    that the Pareto frontier of the full space weakly dominates the
    frontier of its static-only subspace — adding an axis never makes
    the frontier worse. *)
let test_dse_backend_axis_dominates () =
  let k = find_kernel "fir" in
  let sp = Sp.of_kernel ~scheds:B.all_scheds k in
  let eval (c : Sp.config) =
    match Flow_util.frontend_exn (k.K.build (Sp.to_directives sp c)) with
    | lm, _, _ -> (
        try
          let r = B.synthesize ~sched:c.Sp.c_sched ~top:k.K.kname lm in
          Some (Sp.describe c, c.Sp.c_sched, Se.objectives_of_report r)
        with E.Rejected _ -> None)
    | exception Support.Diag.Failed _ -> None
  in
  let points = List.filter_map eval (Sp.enumerate sp) in
  Alcotest.(check bool) "space is feasible" true (List.length points > 100);
  let archive_of sel =
    List.fold_left
      (fun a (label, sched, obj) ->
        if sel sched then fst (Pa.insert a (Pa.entry ~key:label ~obj ()))
        else a)
      Pa.empty points
  in
  let static_front =
    Pa.frontier (archive_of (fun s -> s = B.Static))
  in
  let both_front = Pa.frontier (archive_of (fun _ -> true)) in
  Alcotest.(check bool) "static frontier nonempty" true (static_front <> []);
  let weakly_covered (s : unit Pa.entry) =
    List.exists
      (fun (b : unit Pa.entry) ->
        Array.for_all2 (fun bx sx -> bx <= sx) b.Pa.e_obj s.Pa.e_obj)
      both_front
  in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        ("weakly dominated: " ^ s.Pa.e_key)
        true (weakly_covered s))
    static_front

(** The search API threads the axis: a both-backend search over fir
    explores a strictly larger space and reports dynamic labels. *)
let test_search_backend_axis () =
  let k = find_kernel "fir" in
  let static_space = Sp.of_kernel k in
  let both_space = Sp.of_kernel ~scheds:B.all_scheds k in
  Alcotest.(check int) "axis doubles the space"
    (2 * List.length (Sp.enumerate static_space))
    (List.length (Sp.enumerate both_space));
  let params = { Se.default_params with Se.max_evals = 96 } in
  let o = Se.search ~params ~scheds:B.all_scheds k in
  Alcotest.(check bool) "frontier nonempty" true (o.Se.o_frontier <> []);
  (* labels and configs agree on the axis: "-dyn" iff dynamic *)
  List.iter
    (fun (p : Se.point) ->
      let is_dyn = p.Se.pt_config.Sp.c_sched = B.Dynamic in
      let has_suffix =
        let l = p.Se.pt_label and s = "-dyn" in
        String.length l >= 4 && String.sub l (String.length l - 4) 4 = s
      in
      Alcotest.(check bool) ("label axis tag: " ^ p.Se.pt_label) is_dyn
        has_suffix)
    o.Se.o_frontier;
  Alcotest.(check bool) "dynamic point reaches the frontier" true
    (List.exists
       (fun (p : Se.point) -> p.Se.pt_config.Sp.c_sched = B.Dynamic)
       o.Se.o_frontier)

let suite =
  [
    Alcotest.test_case "golden gemm report" `Quick test_golden_gemm;
    Alcotest.test_case "golden fir report" `Quick test_golden_fir;
    Alcotest.test_case "report digests (168 reports)" `Quick test_report_digests;
    Alcotest.test_case "report digest (336 sampled)" `Quick
      test_sampled_points_digest;
    Alcotest.test_case "two carries read by one node" `Quick test_two_carries;
    Alcotest.test_case "sched name roundtrip" `Quick test_sched_name_roundtrip;
    Alcotest.test_case "dynamic complete (14 kernels)" `Quick
      test_dynamic_complete;
    Alcotest.test_case "dynamic token-RTT II" `Quick test_dynamic_token_rtt_ii;
    Alcotest.test_case "fifo cost model" `Quick test_fifo_cost;
    Alcotest.test_case "default channel geometry" `Quick
      test_default_channel_geometry;
    Alcotest.test_case "backend axis weakly dominates" `Quick
      test_dse_backend_axis_dominates;
    Alcotest.test_case "search over backend axis" `Quick
      test_search_backend_axis;
  ]
