//===- vm/ExternalFunctions.cpp --------------------------------------------===//

#include "vm/ExternalFunctions.h"

#include <cmath>

namespace dyc {
namespace vm {

unsigned ExternalRegistry::add(ExternalFunction F) {
  assert(find(F.Name) < 0 && "duplicate external function");
  Table.push_back(std::move(F));
  return static_cast<unsigned>(Table.size() - 1);
}

int ExternalRegistry::find(const std::string &Name) const {
  for (size_t I = 0; I != Table.size(); ++I)
    if (Table[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

void ExternalRegistry::addStandardMath() {
  auto Unary = [this](const char *Name, double (*F)(double), uint32_t Cost) {
    add({Name, 1, ExtResult::Double, /*Pure=*/true, Cost,
         [F](const Word *A) { return Word::fromFloat(F(A[0].asFloat())); }});
  };
  Unary("cos", std::cos, 180);
  Unary("sin", std::sin, 120);
  Unary("sqrt", std::sqrt, 35);
  Unary("fabs", std::fabs, 4);
  Unary("floor", std::floor, 6);
  Unary("exp", std::exp, 90);
  Unary("log", std::log, 90);
  add({"pow", 2, ExtResult::Double, /*Pure=*/true, 120, [](const Word *A) {
         return Word::fromFloat(std::pow(A[0].asFloat(), A[1].asFloat()));
       }});
}

} // namespace vm
} // namespace dyc
