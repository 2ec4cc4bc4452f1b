//===- pyast/Ast.cpp - Python abstract syntax tree ------------------------===//

#include "pyast/Ast.h"

#include <algorithm>
#include <utility>

using namespace seldon;
using namespace seldon::pyast;

const char *seldon::pyast::binaryOpSpelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add: return "+";
  case BinaryOp::Sub: return "-";
  case BinaryOp::Mul: return "*";
  case BinaryOp::MatMul: return "@";
  case BinaryOp::Div: return "/";
  case BinaryOp::FloorDiv: return "//";
  case BinaryOp::Mod: return "%";
  case BinaryOp::Pow: return "**";
  case BinaryOp::LShift: return "<<";
  case BinaryOp::RShift: return ">>";
  case BinaryOp::BitAnd: return "&";
  case BinaryOp::BitOr: return "|";
  case BinaryOp::BitXor: return "^";
  }
  return "?";
}
