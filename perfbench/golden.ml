(* Output digests pinned at the commit that introduced the benchmark
   ([perfbench.exe pin] recomputes them).  Every run checks its first
   operation of each kind against these, on the input generated from
   [pin_seed]; the other operations run on inputs generated from the
   run's own seed. *)

let pin_seed = 1

(* [Ndarray.digest] of the resnet18 output (see [Model]) on
   [Executor.default_input ~seed:pin_seed]. *)
let model = "18cd8a0b54a4093a9b6ef50fea13ae78"

(* Per kernel, the tree-walking interpreter's digest of the scalar
   reference on [Common.op_inputs ~seed:pin_seed]: the tensorized and
   scalar variants on the closure and emitted engines must all equal
   it. *)
let kernels =
  [ ("t1r3", "0530c9f676d68e880d521dacc77d4306");
    ("t1r15", "1935ed3e769e12060b7e5a41386a9758");
    ("r18blk", "723e72ded41ab2bb2bd28be1b0b5a22a");
    ("r18fc", "f1592eb2c226b35e452b4bd01c7eeaf1")
  ]

(* The self-test flips one of these to show a wrong digest fails. *)
let flip d =
  String.mapi (fun i c -> if i = 0 then (if c = '0' then '1' else '0') else c) d
