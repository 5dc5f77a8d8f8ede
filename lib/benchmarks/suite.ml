open Compiler

type bench = { name : string; category : string; program : Pass.program }

let categories =
  [
    "alu"; "bit_adder"; "comparator"; "encoding"; "grover"; "hwb"; "modulo";
    "mult"; "pf"; "qaoa"; "qft"; "ripple_add"; "square"; "sym"; "tof";
    "uccsd"; "urf";
  ]

let g cat name c = { name; category = cat; program = Pass.Gates c }
let p cat name prog = { name; category = cat; program = Pass.Pauli prog }

let suite ?(big = false) () =
  let base =
    [
      g "alu" "alu_1" (Generators.alu 1);
      g "alu" "alu_2" (Generators.alu 2);
      g "alu" "alu_3" (Generators.alu 3);
      g "bit_adder" "bit_adder_2" (Generators.bit_adder 2);
      g "bit_adder" "bit_adder_4" (Generators.bit_adder 4);
      g "bit_adder" "bit_adder_6" (Generators.bit_adder 6);
      g "comparator" "comparator_2" (Generators.comparator 2);
      g "comparator" "comparator_3" (Generators.comparator 3);
      g "encoding" "encoding_3" (Generators.encoding 3);
      g "encoding" "encoding_6" (Generators.encoding 6);
      g "grover" "grover_6" (Generators.grover ~data:6 ~iters:2);
      g "hwb" "hwb_4" (Generators.hwb ~seed:1 4 ~gates:26);
      g "hwb" "hwb_6" (Generators.hwb ~seed:2 6 ~gates:70);
      g "hwb" "hwb_8" (Generators.hwb ~seed:3 8 ~gates:160);
      g "modulo" "modulo_3" (Generators.modulo 3);
      g "modulo" "modulo_5" (Generators.modulo 5);
      g "mult" "mult_2" (Generators.mult 2);
      g "mult" "mult_3" (Generators.mult 3);
      p "pf" "pf_6" (Generators.pf 6 ~steps:2);
      p "pf" "pf_10" (Generators.pf 10 ~steps:2);
      p "qaoa" "qaoa_8" (Generators.qaoa ~seed:4 8 ~layers:1);
      p "qaoa" "qaoa_10" (Generators.qaoa ~seed:5 10 ~layers:2);
      g "qft" "qft_8" (Generators.qft 8);
      g "ripple_add" "rip_add_2" (Generators.ripple_add 2);
      g "ripple_add" "rip_add_4" (Generators.ripple_add 4);
      g "square" "square_2" (Generators.square 2);
      g "square" "square_3" (Generators.square 3);
      g "sym" "sym_5" (Generators.sym 5);
      g "sym" "sym_9" (Generators.sym 9);
      g "tof" "tof_5" (Generators.tof 5);
      g "tof" "tof_10" (Generators.tof 10);
      p "uccsd" "uccsd_8" (Generators.uccsd ~seed:6 8 ~excitations:4);
      p "uccsd" "uccsd_12" (Generators.uccsd ~seed:7 12 ~excitations:8);
      g "urf" "urf_8" (Generators.urf ~seed:8 8 ~gates:260);
    ]
  in
  let extra =
    [
      g "bit_adder" "bit_adder_10" (Generators.bit_adder 10);
      g "hwb" "hwb_10" (Generators.hwb ~seed:9 10 ~gates:420);
      p "pf" "pf_16" (Generators.pf 16 ~steps:3);
      p "qaoa" "qaoa_16" (Generators.qaoa ~seed:10 16 ~layers:2);
      g "qft" "qft_16" (Generators.qft 16);
      g "ripple_add" "rip_add_8" (Generators.ripple_add 8);
      g "tof" "tof_16" (Generators.tof 16);
      p "uccsd" "uccsd_14" (Generators.uccsd ~seed:11 14 ~excitations:12);
      g "urf" "urf_9" (Generators.urf ~seed:12 9 ~gates:600);
      g "mult" "mult_4" (Generators.mult 4);
      g "alu" "alu_4" (Generators.alu 4);
      g "sym" "sym_12" (Generators.sym 12);
    ]
  in
  if big then base @ extra else base

let by_category benches =
  List.filter_map
    (fun cat ->
      match List.filter (fun b -> b.category = cat) benches with
      | [] -> None
      | bs -> Some (cat, bs))
    categories

type stats = {
  count : int;
  qubit_lo : int;
  qubit_hi : int;
  twoq_lo : int;
  twoq_hi : int;
  depth_lo : int;
  depth_hi : int;
  dur_lo : float;
  dur_hi : float;
}

let table1 benches =
  List.map
    (fun (cat, bs) ->
      let reports =
        List.map
          (fun b ->
            let c = Pass.program_to_cnot_input b.program in
            (c.Circuit.n, Metrics.report Metrics.Cnot_isa c))
          bs
      in
      let fold f init g = List.fold_left (fun acc (n, r) -> f acc (g n r)) init reports in
      ( cat,
        {
          count = List.length bs;
          qubit_lo = fold min max_int (fun n _ -> n);
          qubit_hi = fold max 0 (fun n _ -> n);
          twoq_lo = fold min max_int (fun _ r -> r.Metrics.count_2q);
          twoq_hi = fold max 0 (fun _ r -> r.Metrics.count_2q);
          depth_lo = fold min max_int (fun _ r -> r.Metrics.depth_2q);
          depth_hi = fold max 0 (fun _ r -> r.Metrics.depth_2q);
          dur_lo = fold Float.min infinity (fun _ r -> r.Metrics.duration);
          dur_hi = fold Float.max 0.0 (fun _ r -> r.Metrics.duration);
        } ))
    (by_category benches)
