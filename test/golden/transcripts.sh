#!/bin/sh
# Golden transcripts of the ppdc surfaces that dispatch on a solver name.
#
#   sh transcripts.sh cli|rpc|experiments PPDC_EXE
#
# prints a deterministic transcript on stdout; test/golden/dune diffs it
# against the committed <category>.expected. Every command runs on one
# domain (results are identical at every domain count, so this only
# keeps the run cheap). The rpc transcript strips "elapsed_ms", the only
# wall-clock field the requests below produce.
set -eu
category=$1
ppdc=$2
inst="-j 1 -k 4 -l 8 -n 3"

run() {
  echo "\$ ppdc $*"
  "$ppdc" "$@" 2>&1 || echo "[exit $?]"
}

case "$category" in
cli)
  for w in "" --weighted; do
    for algo in dp optimal primal_dual steering greedy; do
      run place $inst $w --algo $algo
    done
    for algo in mpareto optimal forecast plan mcf none; do
      run migrate $inst $w --mu 100 --algo $algo
    done
  done
  for policy in mpareto optimal forecast plan mcf none; do
    run simulate $inst --mu 100 --policy $policy
    run simulate $inst --mu 100 --policy $policy --events
  done
  ;;
rpc)
  "$ppdc" serve --stdio -j 1 <<'EOF' | sed 's/,"elapsed_ms":[^,}]*//g'
{"id":1,"method":"load_topology","params":{"session":"u","k":4,"l":8,"n":3,"seed":1}}
{"id":2,"method":"load_topology","params":{"session":"w","k":4,"l":8,"n":3,"seed":1,"weighted":true}}
{"id":3,"method":"place","params":{"session":"u","algo":"dp"}}
{"id":4,"method":"place","params":{"session":"u","algo":"dp","pair_limit":2}}
{"id":5,"method":"place","params":{"session":"u","algo":"optimal"}}
{"id":6,"method":"place","params":{"session":"u","algo":"optimal","budget":3}}
{"id":7,"method":"place","params":{"session":"u","algo":"primal_dual"}}
{"id":8,"method":"place","params":{"session":"u","algo":"steering"}}
{"id":9,"method":"place","params":{"session":"u","algo":"greedy"}}
{"id":10,"method":"place","params":{"session":"u","algo":"annealing"}}
{"id":11,"method":"place","params":{"session":"w","algo":"dp"}}
{"id":12,"method":"place","params":{"session":"w","algo":"primal_dual"}}
{"id":13,"method":"rates_update","params":{"session":"u","seed":1001}}
{"id":14,"method":"migrate","params":{"session":"u","algo":"none"}}
{"id":15,"method":"migrate","params":{"session":"u","algo":"mpareto","mu":100}}
{"id":16,"method":"migrate","params":{"session":"u","algo":"optimal","mu":100}}
{"id":17,"method":"migrate","params":{"session":"u","algo":"optimal","mu":100,"budget":5}}
{"id":18,"method":"migrate","params":{"session":"u","algo":"mpareto"}}
{"id":19,"method":"migrate","params":{"session":"u","algo":"plan","mu":100}}
{"id":20,"method":"migrate","params":{"session":"u","algo":"mcf","mu":100}}
{"id":21,"method":"migrate","params":{"session":"u","algo":"none"}}
{"id":22,"method":"migrate","params":{"session":"u","algo":"teleport"}}
{"id":23,"method":"rates_update","params":{"session":"w","scale":1.5}}
{"id":24,"method":"migrate","params":{"session":"w","algo":"mpareto","mu":100}}
{"id":25,"method":"migrate","params":{"session":"w","algo":"none"}}
{"id":26,"method":"simulate_events","params":{"session":"w","policy":"mpareto","mu":100}}
{"id":27,"method":"simulate_events","params":{"session":"w","policy":"optimal","mu":100}}
{"id":28,"method":"simulate_events","params":{"session":"w","policy":"forecast","mu":100}}
{"id":29,"method":"simulate_events","params":{"session":"w","policy":"plan","mu":100}}
{"id":30,"method":"simulate_events","params":{"session":"w","policy":"mcf","mu":100}}
{"id":31,"method":"simulate_events","params":{"session":"w","policy":"none","mu":100}}
{"id":32,"method":"simulate_events","params":{"session":"w","policy":"mpareto","mu":100,"trigger":"threshold:1.2","probe_every":0.5}}
{"id":33,"method":"simulate_events","params":{"session":"w","policy":"sometimes"}}
{"id":34,"method":"migrate","params":{"session":"w","algo":"forecast","mu":100}}
{"id":35,"method":"migrate","params":{"session":"u","algo":"optimal","mu":100,"pair_limit":0}}
EOF
  ;;
experiments)
  for e in tab2 fig9 fig10 fig11 abl_initial abl_lookahead abl_mu \
    abl_parallel ext_churn ext_replication eta_sweep; do
    run experiment -j 1 --mode quick $e
  done
  ;;
*)
  echo "unknown transcript category: $category" >&2
  exit 2
  ;;
esac
