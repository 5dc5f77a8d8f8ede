(* The benchmark's own arithmetic: the tail-percentile rule, span self
   time, and the serve outside-engine share. *)

let range n = List.init n (fun i -> float_of_int (i + 1))

let beyond xs v = List.length (List.filter (fun x -> x > v) xs)

let test_tail () =
  (* 1000 samples: p99 itself, with exactly ten samples beyond it *)
  let xs = range 1000 in
  (match Stats.tail xs with
  | Some (p, v) ->
    Alcotest.(check (float 1e-12)) "p99 when enough samples" 0.99 p;
    Alcotest.(check int) "ten beyond p99" 10 (beyond xs v)
  | None -> Alcotest.fail "1000 samples must give a tail");
  (* fewer samples: a lower percentile, still with ten beyond it *)
  List.iter
    (fun n ->
      let xs = range n in
      match Stats.tail xs with
      | Some (p, v) ->
        Alcotest.(check bool) (Printf.sprintf "n=%d below p99" n) true (p < 0.99);
        Alcotest.(check bool)
          (Printf.sprintf "n=%d at least ten beyond" n)
          true
          (beyond xs v >= Stats.min_beyond)
      | None -> Alcotest.fail "more than ten samples must give a tail")
    [ 11; 37; 261; 999 ];
  Alcotest.(check bool) "ten samples give no tail" true (Stats.tail (range 10) = None);
  Alcotest.(check (float 1e-12)) "median interpolates" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let span ?(domain = 0) t0 dur depth = { Stats.t0; dur; depth; domain }

let test_self_time () =
  let selfs spans = Array.to_list (Stats.self_times (Array.of_list spans)) in
  Alcotest.(check (list int))
    "children are subtracted once, grandchildren not from the root" [ 70; 15; 5; 10 ]
    (selfs [ span 0 100 0; span 10 20 1; span 12 5 2; span 50 10 1 ]);
  Alcotest.(check (list int))
    "overlapping children are merged" [ 70; 20; 20 ]
    (selfs [ span 0 100 0; span 10 20 1; span 20 20 1 ]);
  Alcotest.(check (list int))
    "a child inside another child's interval adds nothing" [ 60; 40; 10 ]
    (selfs [ span 0 100 0; span 10 40 1; span 20 10 1 ]);
  Alcotest.(check (list int))
    "a span two levels deeper is not a direct child" [ 100; 10 ]
    (selfs [ span 0 100 0; span 10 10 2 ]);
  Alcotest.(check (list int))
    "a child running past its parent is clipped" [ 10; 40 ]
    (selfs [ span 0 30 0; span 10 40 1 ]);
  Alcotest.(check (list int))
    "spans on another domain or at the same depth are not children" [ 100; 50; 20 ]
    (selfs [ span 0 100 0; span ~domain:1 10 50 1; span 200 20 0 ]);
  Alcotest.(check (list int))
    "input order does not matter" [ 10; 70 ]
    (selfs [ span 50 10 1; span 0 100 0; span 10 20 1 ] |> fun l -> [ List.nth l 0; List.nth l 1 ])

let test_outside_share () =
  Alcotest.(check (float 1e-12)) "engine explains 80%" 0.2
    (Stats.outside_share ~engine_s:0.8 ~client_s:1.0);
  Alcotest.(check (float 1e-12)) "engine explains everything" 0.0
    (Stats.outside_share ~engine_s:2.5 ~client_s:2.5);
  Alcotest.(check bool) "no client time is undefined" true
    (Float.is_nan (Stats.outside_share ~engine_s:1.0 ~client_s:0.0))

let () =
  Alcotest.run "perfbench stats"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "outside-engine share" `Quick test_outside_share;
        ] );
    ]
