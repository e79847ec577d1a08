(* Benchmark driver: regenerates every table and figure of the paper.
   Performance is measured by the repository benchmark (perfbench/), not
   here.

   Usage:
     dune exec bench/main.exe                    # every experiment
     dune exec bench/main.exe -- fig5 table1     # the named experiments *)

(* fig3 and fig4 share a regeneration: a bare run runs each entry once *)
let experiments =
  [ ([ "fig2" ], Experiments.fig2);
    ([ "fig3"; "fig4" ], Experiments.fig3_4);
    ([ "fig5" ], Experiments.fig5);
    ([ "fig6" ], Experiments.fig6);
    ([ "fig7" ], Experiments.fig7);
    ([ "fig8" ], Experiments.fig8);
    ([ "fig9" ], Experiments.fig9);
    ([ "fig10" ], Experiments.fig10);
    ([ "table1" ], Experiments.table1);
    ([ "table1-probs" ], Experiments.table1_probs);
    ([ "table2" ], Experiments.table2);
    ([ "casestudy" ], Experiments.casestudy);
    ([ "seqtable" ], Experiments.seq_table);
    ([ "validate" ], Experiments.validate);
    ([ "ablation" ], Experiments.ablation) ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> List.iter (fun (_, f) -> f ()) experiments
  | names ->
    List.iter
      (fun name ->
        let named (ns, _) = List.mem (String.lowercase_ascii name) ns in
        match List.find_opt named experiments with
        | Some (_, f) -> f ()
        | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat ", " (List.concat_map fst experiments));
          exit 1)
      names
