//! Pretty-printer: AST → canonical Scenic source.
//!
//! Useful for diagnostics, for scenario-generating tools (the §6
//! experiments build variant scenarios programmatically), and — paired
//! with the parser — as a round-trip oracle: `parse(print(ast))`
//! re-produces the same AST (tested here and property-tested in the
//! workspace integration suite).

use crate::ast::*;

/// Renders a whole program as Scenic source.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    for stmt in &program.statements {
        print_stmt(stmt, 0, &mut out);
    }
    out
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn print_block(body: &[Stmt], level: usize, out: &mut String) {
    if body.is_empty() {
        indent(level, out);
        out.push_str("pass\n");
        return;
    }
    for stmt in body {
        print_stmt(stmt, level, out);
    }
}

fn print_stmt(stmt: &Stmt, level: usize, out: &mut String) {
    indent(level, out);
    match &stmt.kind {
        StmtKind::Import(name) => {
            out.push_str(&format!("import {name}\n"));
        }
        StmtKind::Assign { name, value } => {
            out.push_str(&format!("{name} = {}\n", print_expr(value)));
        }
        StmtKind::Store { target, value } => {
            out.push_str(&format!("{} = {}\n", target.name, print_expr(value)));
        }
        StmtKind::Param(params) => {
            let parts: Vec<String> = params
                .iter()
                .map(|(k, v)| format!("{k} = {}", print_expr(v)))
                .collect();
            out.push_str(&format!("param {}\n", parts.join(", ")));
        }
        StmtKind::ClassDef(cd) => {
            match &cd.superclass {
                Some(s) => out.push_str(&format!("class {}({s}):\n", cd.name)),
                None => out.push_str(&format!("class {}:\n", cd.name)),
            }
            if cd.properties.is_empty() {
                indent(level + 1, out);
                out.push_str("pass\n");
            }
            for (prop, default) in &cd.properties {
                indent(level + 1, out);
                out.push_str(&format!("{prop}: {}\n", print_expr(default)));
            }
        }
        StmtKind::Expr(e) => {
            out.push_str(&format!("{}\n", print_expr(e)));
        }
        StmtKind::Require { prob, cond } => match prob {
            Some(p) => out.push_str(&format!(
                "require[{}] {}\n",
                print_expr(p),
                print_expr(cond)
            )),
            None => out.push_str(&format!("require {}\n", print_expr(cond))),
        },
        StmtKind::Mutate { targets, scale } => {
            out.push_str("mutate");
            if !targets.is_empty() {
                out.push(' ');
                out.push_str(&targets.join(", "));
            }
            if let Some(s) = scale {
                out.push_str(&format!(" by {}", print_expr(s)));
            }
            out.push('\n');
        }
        StmtKind::FuncDef(fd) => {
            let params: Vec<String> = fd
                .params
                .iter()
                .map(|(name, default)| match default {
                    Some(d) => format!("{name}={}", print_expr(d)),
                    None => name.clone(),
                })
                .collect();
            out.push_str(&format!("def {}({}):\n", fd.name, params.join(", ")));
            print_block(&fd.body, level + 1, out);
        }
        StmtKind::SpecifierDef(sd) => {
            let params: Vec<String> = sd
                .params
                .iter()
                .map(|(name, default)| match default {
                    Some(d) => format!("{name}={}", print_expr(d)),
                    None => name.clone(),
                })
                .collect();
            out.push_str(&format!(
                "specifier {}({}) specifies {}",
                sd.name,
                params.join(", "),
                sd.specifies.join(", ")
            ));
            if !sd.optional.is_empty() {
                out.push_str(&format!(" optionally {}", sd.optional.join(", ")));
            }
            if !sd.requires.is_empty() {
                out.push_str(&format!(" requires {}", sd.requires.join(", ")));
            }
            out.push_str(":\n");
            print_block(&sd.body, level + 1, out);
        }
        StmtKind::Return(value) => match value {
            Some(v) => out.push_str(&format!("return {}\n", print_expr(v))),
            None => out.push_str("return\n"),
        },
        StmtKind::If {
            branches,
            else_body,
        } => {
            for (i, (cond, body)) in branches.iter().enumerate() {
                if i > 0 {
                    indent(level, out);
                }
                let kw = if i == 0 { "if" } else { "elif" };
                out.push_str(&format!("{kw} {}:\n", print_expr(cond)));
                print_block(body, level + 1, out);
            }
            if !else_body.is_empty() {
                indent(level, out);
                out.push_str("else:\n");
                print_block(else_body, level + 1, out);
            }
        }
        StmtKind::For { var, iter, body } => {
            out.push_str(&format!("for {var} in {}:\n", print_expr(iter)));
            print_block(body, level + 1, out);
        }
        StmtKind::While { cond, body } => {
            out.push_str(&format!("while {}:\n", print_expr(cond)));
            print_block(body, level + 1, out);
        }
        StmtKind::Pass => out.push_str("pass\n"),
    }
}

/// Renders one expression (fully parenthesized where precedence could
/// be ambiguous, so the output always re-parses to the same tree).
pub fn print_expr(expr: &Expr) -> String {
    match expr {
        Expr::Number(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Expr::Bool(b) => if *b { "True" } else { "False" }.to_string(),
        Expr::Str(s) => format!("'{}'", s.replace('\\', "\\\\").replace('\'', "\\'")),
        Expr::None => "None".to_string(),
        Expr::Ident(name) => name.clone(),
        Expr::Resolved(r) => r.name.clone(),
        Expr::Vector(x, y) => format!("({} @ {})", print_expr(x), print_expr(y)),
        Expr::Interval(lo, hi) => format!("({}, {})", print_expr(lo), print_expr(hi)),
        Expr::Call { func, args, kwargs } => {
            let mut parts: Vec<String> = args.iter().map(print_expr).collect();
            parts.extend(kwargs.iter().map(|(k, v)| format!("{k}={}", print_expr(v))));
            format!("{}({})", print_expr(func), parts.join(", "))
        }
        Expr::Attribute { obj, name } => format!("{}.{name}", print_expr(obj)),
        Expr::Index { obj, key } => format!("{}[{}]", print_expr(obj), print_expr(key)),
        Expr::List(items) => {
            let parts: Vec<String> = items.iter().map(print_expr).collect();
            format!("[{}]", parts.join(", "))
        }
        Expr::Dict(items) => {
            let parts: Vec<String> = items
                .iter()
                .map(|(k, v)| format!("{}: {}", print_expr(k), print_expr(v)))
                .collect();
            format!("{{{}}}", parts.join(", "))
        }
        Expr::Neg(e) => format!("(-{})", print_expr(e)),
        Expr::NotOp(e) => format!("(not {})", print_expr(e)),
        Expr::Binary { op, lhs, rhs } => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Mod => "%",
                BinOp::And => "and",
                BinOp::Or => "or",
            };
            format!("({} {sym} {})", print_expr(lhs), print_expr(rhs))
        }
        Expr::Compare { op, lhs, rhs } => {
            let sym = match op {
                CmpOp::Eq => "==",
                CmpOp::Ne => "!=",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
                CmpOp::Is => "is",
                CmpOp::IsNot => "is not",
            };
            format!("({} {sym} {})", print_expr(lhs), print_expr(rhs))
        }
        Expr::IfElse {
            cond,
            then,
            otherwise,
        } => format!(
            "({} if {} else {})",
            print_expr(then),
            print_expr(cond),
            print_expr(otherwise)
        ),
        Expr::Deg(e) => format!("({} deg)", print_expr(e)),
        Expr::RelativeTo(a, b) => {
            format!("({} relative to {})", print_expr(a), print_expr(b))
        }
        Expr::OffsetBy(a, b) => format!("({} offset by {})", print_expr(a), print_expr(b)),
        Expr::OffsetAlong {
            base,
            direction,
            offset,
        } => format!(
            "({} offset along {} by {})",
            print_expr(base),
            print_expr(direction),
            print_expr(offset)
        ),
        Expr::FieldAt(f, v) => format!("({} at {})", print_expr(f), print_expr(v)),
        Expr::CanSee(a, b) => format!("({} can see {})", print_expr(a), print_expr(b)),
        Expr::IsIn(a, b) => format!("({} is in {})", print_expr(a), print_expr(b)),
        Expr::DistanceTo { from, to } => match from {
            Some(f) => format!("(distance from {} to {})", print_expr(f), print_expr(to)),
            None => format!("(distance to {})", print_expr(to)),
        },
        Expr::AngleTo { from, to } => match from {
            Some(f) => format!("(angle from {} to {})", print_expr(f), print_expr(to)),
            None => format!("(angle to {})", print_expr(to)),
        },
        Expr::RelativeHeadingOf { of, from } => match from {
            Some(f) => format!(
                "(relative heading of {} from {})",
                print_expr(of),
                print_expr(f)
            ),
            None => format!("(relative heading of {})", print_expr(of)),
        },
        Expr::ApparentHeadingOf { of, from } => match from {
            Some(f) => format!(
                "(apparent heading of {} from {})",
                print_expr(of),
                print_expr(f)
            ),
            None => format!("(apparent heading of {})", print_expr(of)),
        },
        Expr::Visible(r) => format!("(visible {})", print_expr(r)),
        Expr::VisibleFrom(r, p) => {
            format!("({} visible from {})", print_expr(r), print_expr(p))
        }
        Expr::Follow {
            field,
            from,
            distance,
        } => match from {
            Some(f) => format!(
                "(follow {} from {} for {})",
                print_expr(field),
                print_expr(f),
                print_expr(distance)
            ),
            None => format!(
                "(follow {} for {})",
                print_expr(field),
                print_expr(distance)
            ),
        },
        Expr::BoxPointOf { which, obj } => {
            let name = match which {
                BoxPoint::Front => "front of",
                BoxPoint::Back => "back of",
                BoxPoint::Left => "left of",
                BoxPoint::Right => "right of",
                BoxPoint::FrontLeft => "front left of",
                BoxPoint::FrontRight => "front right of",
                BoxPoint::BackLeft => "back left of",
                BoxPoint::BackRight => "back right of",
            };
            format!("({name} {})", print_expr(obj))
        }
        Expr::Ctor {
            class, specifiers, ..
        } => {
            if specifiers.is_empty() {
                class.clone()
            } else {
                let parts: Vec<String> = specifiers.iter().map(print_specifier).collect();
                format!("{class} {}", parts.join(", "))
            }
        }
    }
}

/// Renders one specifier.
pub fn print_specifier(spec: &Specifier) -> String {
    match spec {
        Specifier::With(prop, value) => format!("with {prop} {}", print_expr(value)),
        Specifier::At(v) => format!("at {}", print_expr(v)),
        Specifier::OffsetBy(v) => format!("offset by {}", print_expr(v)),
        Specifier::OffsetAlong(d, v) => {
            format!("offset along {} by {}", print_expr(d), print_expr(v))
        }
        Specifier::Beside { side, target, by } => {
            let head = match side {
                Side::Left => "left of",
                Side::Right => "right of",
                Side::Ahead => "ahead of",
                Side::Behind => "behind",
            };
            match by {
                Some(b) => format!("{head} {} by {}", print_expr(target), print_expr(b)),
                None => format!("{head} {}", print_expr(target)),
            }
        }
        Specifier::Beyond {
            target,
            offset,
            from,
        } => match from {
            Some(f) => format!(
                "beyond {} by {} from {}",
                print_expr(target),
                print_expr(offset),
                print_expr(f)
            ),
            None => format!("beyond {} by {}", print_expr(target), print_expr(offset)),
        },
        Specifier::Visible(from) => match from {
            Some(f) => format!("visible from {}", print_expr(f)),
            None => "visible".to_string(),
        },
        Specifier::InRegion(r) => format!("in {}", print_expr(r)),
        Specifier::Following {
            field,
            from,
            distance,
        } => match from {
            Some(f) => format!(
                "following {} from {} for {}",
                print_expr(field),
                print_expr(f),
                print_expr(distance)
            ),
            None => format!(
                "following {} for {}",
                print_expr(field),
                print_expr(distance)
            ),
        },
        Specifier::Facing(h) => format!("facing {}", print_expr(h)),
        Specifier::FacingToward(v) => format!("facing toward {}", print_expr(v)),
        Specifier::FacingAwayFrom(v) => format!("facing away from {}", print_expr(v)),
        Specifier::ApparentlyFacing { heading, from } => match from {
            Some(f) => format!(
                "apparently facing {} from {}",
                print_expr(heading),
                print_expr(f)
            ),
            None => format!("apparently facing {}", print_expr(heading)),
        },
        Specifier::Using { name, args, kwargs } => {
            let mut parts: Vec<String> = args.iter().map(print_expr).collect();
            parts.extend(kwargs.iter().map(|(k, v)| format!("{k}={}", print_expr(v))));
            format!("using {name}({})", parts.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// Round-trip oracle: printing then re-parsing reproduces the AST.
    fn round_trips(src: &str) {
        let ast = parse(src).unwrap_or_else(|e| panic!("original parse failed: {e}\n{src}"));
        let printed = print_program(&ast);
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("printed source failed to parse: {e}\n{printed}"));
        assert_eq!(ast, reparsed, "round trip changed the AST:\n{printed}");
    }

    #[test]
    fn simple_statements() {
        round_trips("x = 3.5\nego = Car\nCar\n");
        round_trips("param time = 12 * 60, weather = 'RAIN'\n");
        round_trips("import gtaLib\n");
        round_trips("mutate\nmutate taxi by 2\n");
        round_trips("require x > 3\nrequire[0.5] y < 2\n");
    }

    #[test]
    fn specifiers_round_trip() {
        round_trips("Car at 1 @ 2, facing 30 deg, with model m\n");
        round_trips("Car offset by (-10, 10) @ (20, 40)\n");
        round_trips("Car left of spot by 0.5, facing badAngle relative to roadDirection\n");
        round_trips("Car beyond c by leftRight @ (4, 10)\n");
        round_trips("spot = OrientedPoint on visible curb\n");
        round_trips("Car visible, with roadDeviation resample(wiggle)\n");
        round_trips("Object following field from 1 @ 2 for 5\n");
        round_trips("Object facing toward 0 @ 0\nObject facing away from 1 @ 1\n");
        round_trips("Object apparently facing 90 deg from 2 @ 2\n");
        round_trips("Object offset along 90 deg by 0 @ 5\n");
    }

    #[test]
    fn operators_round_trip() {
        round_trips("x = distance from a to b\n");
        round_trips("x = angle to 1 @ 2\n");
        round_trips("x = relative heading of a from b\n");
        round_trips("x = apparent heading of p\n");
        round_trips("x = follow f from 0 @ 0 for 10\n");
        round_trips("x = front left of car\n");
        round_trips("require car can see ego and not (x is in road)\n");
        round_trips("x = f at (1 @ 2)\n");
        round_trips("r = road visible from ego\nr2 = visible road\n");
    }

    #[test]
    fn control_flow_round_trips() {
        round_trips(
            "def f(a, b=3):\n    if a > b:\n        return a\n    else:\n        return b\n",
        );
        round_trips("for i in range(4):\n    Car\n");
        round_trips("while x < 3:\n    x = x + 1\n");
        round_trips("x = a if m is None else resample(m)\n");
    }

    #[test]
    fn class_defs_round_trip() {
        round_trips(
            "class Car:\n    position: Point on road\n    heading: (roadDirection at self.position) + self.roadDeviation\n",
        );
        round_trips("class EgoCar(Car):\n    model: CarModel.models['EGO']\n");
    }

    #[test]
    fn full_gallery_round_trips() {
        // The bumper-to-bumper scenario exercises most of the grammar.
        round_trips(
            "depth = 4\nlaneGap = 3.5\ncarGap = (1, 3)\nwiggle = (-5 deg, 5 deg)\n\
             def createLaneAt(car):\n    createPlatoonAt(car, depth, dist=carGap, wiggle=wiggle)\n\
             ego = Car with visibleDistance 60\n\
             leftCar = carAheadOfCar(ego, laneShift + carGap, offsetX=-laneGap, wiggle=wiggle)\n\
             createLaneAt(leftCar)\n",
        );
    }

    #[test]
    fn strings_with_escapes() {
        round_trips("x = 'it\\'s'\ny = 'back\\\\slash'\n");
    }

    #[test]
    fn specifier_definitions_round_trip() {
        round_trips(
            "specifier slot(gap, y=1) specifies position optionally heading requires width:\n\
             \x20   return {'position': gap @ y, 'heading': 0}\n",
        );
        round_trips("specifier o() specifies position:\n    return {'position': 0 @ 0}\n");
        round_trips("ego = Car using slot(curb, gap=0.5), with model m\n");
        round_trips("Car using o(), facing 30 deg\n");
    }

    #[test]
    fn printed_source_is_stable() {
        // print(parse(print(parse(src)))) == print(parse(src)).
        let src = "Car left of spot by 0.5, facing (10, 20) deg relative to roadDirection\n";
        let once = print_program(&parse(src).unwrap());
        let twice = print_program(&parse(&once).unwrap());
        assert_eq!(once, twice);
    }
}
