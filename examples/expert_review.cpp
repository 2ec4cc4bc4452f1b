//===- examples/expert_review.cpp - The Fig. 1 expert workflow ------------===//
//
// The paper's Fig. 1 shows learned specifications being "examined by an
// expert" before feeding the bug detector. This example plays the expert:
// learn from a corpus, pull the most *uncertain* predictions (scores near
// the selection threshold), and for each one print the information-flow
// constraints that produced its score — the evidence a human reviewer
// would weigh before accepting the specification.
//
//===----------------------------------------------------------------------===//

#include "corpus/CorpusGenerator.h"
#include "infer/Pipeline.h"
#include "service/QueryResult.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

using namespace seldon;
using propgraph::Role;

int main() {
  corpus::CorpusOptions Opts;
  Opts.NumProjects = 80;
  corpus::Corpus Data = corpus::generateCorpus(Opts);
  infer::Session S;
  S.addProjects(Data.Projects);
  S.generateConstraints(Data.Seed);
  infer::PipelineResult R = S.solve();
  std::printf("Learned %zu scored representations from %zu files.\n\n",
              R.Learned.size(), R.Graph->files().size());

  for (Role Ro : {Role::Source, Role::Sanitizer, Role::Sink}) {
    // Review queue: non-seed predictions just above the threshold — the
    // ones a reviewer is least sure about.
    auto Ranked = R.Learned.ranked(Ro, 0.1);
    std::vector<std::pair<std::string, double>> Borderline;
    for (const auto &[Rep, Score] : Ranked)
      if (Data.Seed.Spec.rolesOf(Rep) == 0)
        Borderline.emplace_back(Rep, Score);
    std::sort(Borderline.begin(), Borderline.end(),
              [](const auto &A, const auto &B) {
                return A.second < B.second; // Most uncertain first.
              });

    std::printf("=== Review queue: borderline %ss ===\n",
                propgraph::roleName(Ro));
    for (size_t I = 0; I < Borderline.size() && I < 2; ++I) {
      const auto &[Rep, Score] = Borderline[I];
      std::printf("\n%s (score %.2f) — supporting evidence:\n", Rep.c_str(),
                  Score);
      service::QueryResult Q =
          service::queryRep(R.System, R.Reps, Rep, Ro, R.Solve.X);
      // Show the constraints that *demand* the role, at most three.
      size_t Shown = 0;
      for (size_t I = 0; I < Q.Constraints.size(); ++I) {
        if (Q.Constraints[I].Caps)
          continue;
        if (++Shown > 3)
          continue;
        std::string_view Text = Q.text(I);
        std::printf("  %.*s\n", static_cast<int>(Text.size()), Text.data());
      }
      if (Shown > 3)
        std::printf("  ... %zu more\n", Shown - 3);
      if (Shown == 0)
        std::printf("  (score driven only by capping constraints)\n");
      bool Correct = Data.Truth.isTrue(Rep, Ro);
      std::printf("  oracle verdict: %s\n",
                  Correct ? "correct" : "FALSE POSITIVE — reject");
    }
    std::printf("\n");
  }

  std::printf("A reviewer accepts or rejects each entry; accepted entries "
              "join the specification\nthe taint analyzer consumes "
              "(paper Fig. 1).\n");
  return 0;
}
