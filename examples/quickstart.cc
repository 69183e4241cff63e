// Quickstart: the paper's Fig. 1 — relational division and set-containment
// join on the medical example, through the public API.
//
//   build/examples/quickstart
#include <cstdio>

#include "engine/engine.h"
#include "setjoin/division.h"
#include "setjoin/setjoin.h"
#include "witness/figures.h"

int main() {
  using namespace setalg;

  const witness::MedicalExample example = witness::MakeMedicalExample();
  const core::Relation& person = example.db.relation("Person");
  const core::Relation& disease = example.db.relation("Disease");
  const core::Relation& symptoms = example.db.relation("Symptoms");

  std::printf("Fig. 1 — the medical database\n");
  std::printf("  |Person| = %zu, |Disease| = %zu, |Symptoms| = %zu\n\n",
              person.size(), disease.size(), symptoms.size());

  // Division: Person ÷ Symptoms — who has (at least) all listed symptoms?
  std::printf("Person ÷ Symptoms (people showing every listed symptom):\n");
  for (auto algorithm : setjoin::AllDivisionAlgorithms()) {
    const core::Relation result = setjoin::Divide(person, symptoms, algorithm);
    std::printf("  %-14s ->", setjoin::DivisionAlgorithmToString(algorithm));
    for (std::size_t i = 0; i < result.size(); ++i) {
      std::printf(" %s", example.names.Name(result.tuple(i)[0]).c_str());
    }
    std::printf("\n");
  }

  // Set-containment join: which person's symptoms cover which disease?
  std::printf("\nPerson ⋈{Symptom ⊇ Symptom} Disease (possible diagnoses):\n");
  const core::Relation join = setjoin::SetContainmentJoin(
      person, disease, setjoin::ContainmentAlgorithm::kInvertedIndex);
  for (std::size_t i = 0; i < join.size(); ++i) {
    std::printf("  (%s, %s)\n", example.names.Name(join.tuple(i)[0]).c_str(),
                example.names.Name(join.tuple(i)[1]).c_str());
  }

  // The complexity story in one line: the classic RA expression for the
  // division above must materialize a quadratic intermediate (Prop. 26).
  ra::EvalStats stats;
  setjoin::Divide(person, symptoms, setjoin::DivisionAlgorithm::kClassicRa, &stats);
  std::printf("\nClassic RA division materialized a max intermediate of %zu "
              "tuples on a database of %zu tuples.\n",
              stats.max_intermediate, example.db.size());

  // The engine facade: hand it the very same classic RA expression and the
  // planner recognizes the division pattern, routing it to sort-merge
  // division over the stored (hence sorted) Person relation.
  const ra::ExprPtr classic = setjoin::ClassicDivisionExpr("Person", "Symptoms");
  const engine::Engine engine;  // Default options: pattern-aware planner.
  auto explain = engine.Explain(classic, example.db.schema());
  auto planned = engine.Run(classic, example.db);
  if (explain.ok() && planned.ok()) {
    std::printf("\nengine::Engine plan for the same expression:\n%s",
                explain->c_str());
    std::printf("Engine max intermediate: %zu tuples (vs %zu for classic RA), "
                "same result:",
                planned->stats.max_intermediate, stats.max_intermediate);
    for (std::size_t i = 0; i < planned->relation.size(); ++i) {
      std::printf(" %s", example.names.Name(planned->relation.tuple(i)[0]).c_str());
    }
    std::printf("\n");
  }
  return 0;
}
