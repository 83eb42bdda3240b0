//! The tree-building XMI writer the streaming `comet_xmi::export_model`
//! replaced, kept as a test oracle: it builds an owned node tree per
//! element, allocating a `String` for every attribute, and serialises
//! the tree with a char-by-char escape. The streaming writer must
//! reproduce its output byte for byte, because those bytes are the
//! repository's snapshot format and the content address of every
//! model revision.

use comet_model::{
    AggregationKind, AssociationEnd, Direction, Element, ElementId, ElementKind, Model,
    Multiplicity, TagValue, TypeRef, Visibility,
};

/// One element of the owned tree, built builder style.
struct XmlNode {
    name: String,
    attrs: Vec<(String, String)>,
    children: Vec<XmlNode>,
}

impl XmlNode {
    fn new(name: impl Into<String>) -> Self {
        XmlNode { name: name.into(), attrs: Vec::new(), children: Vec::new() }
    }

    fn attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push((key.into(), value.into()));
        self
    }

    fn child(mut self, child: XmlNode) -> Self {
        self.children.push(child);
        self
    }
}

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
}

fn write_xml(root: &XmlNode) -> String {
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    write_node(root, 0, &mut out);
    out
}

fn write_node(node: &XmlNode, indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
    out.push('<');
    out.push_str(&node.name);
    for (k, v) in &node.attrs {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        escape(v, out);
        out.push('"');
    }
    if node.children.is_empty() {
        out.push_str("/>\n");
        return;
    }
    out.push_str(">\n");
    for c in &node.children {
        write_node(c, indent + 1, out);
    }
    for _ in 0..indent {
        out.push_str("  ");
    }
    out.push_str("</");
    out.push_str(&node.name);
    out.push_str(">\n");
}

fn vis_str(v: Visibility) -> &'static str {
    match v {
        Visibility::Public => "public",
        Visibility::Protected => "protected",
        Visibility::Package => "package",
        Visibility::Private => "private",
    }
}

fn type_str(t: TypeRef) -> String {
    match t {
        TypeRef::Primitive(p) => p.name().to_owned(),
        TypeRef::Element(id) => format!("#{}", id.raw()),
    }
}

fn mult_str(m: Multiplicity) -> String {
    match m.upper {
        Some(u) => format!("{}..{}", m.lower, u),
        None => format!("{}..*", m.lower),
    }
}

fn id_str(id: ElementId) -> String {
    format!("#{}", id.raw())
}

fn tag_value_node(name: &str, value: &TagValue) -> XmlNode {
    let node = XmlNode::new(name);
    match value {
        TagValue::Str(s) => node.attr("type", "str").attr("value", s.clone()),
        TagValue::Int(i) => node.attr("type", "int").attr("value", i.to_string()),
        TagValue::Bool(b) => node.attr("type", "bool").attr("value", b.to_string()),
        TagValue::Real(r) => node.attr("type", "real").attr("value", format!("{r:?}")),
        TagValue::List(items) => {
            let mut n = node.attr("type", "list");
            for item in items {
                n = n.child(tag_value_node("UML:Value", item));
            }
            n
        }
    }
}

fn end_node(end: &AssociationEnd) -> XmlNode {
    XmlNode::new("UML:End")
        .attr("role", end.role.clone())
        .attr("class", id_str(end.class))
        .attr("multiplicity", mult_str(end.multiplicity))
        .attr("navigable", end.navigable.to_string())
        .attr(
            "aggregation",
            match end.aggregation {
                AggregationKind::None => "none",
                AggregationKind::Shared => "shared",
                AggregationKind::Composite => "composite",
            },
        )
}

fn element_node(e: &Element) -> XmlNode {
    let mut node = XmlNode::new("UML:Element")
        .attr("xmi.id", id_str(e.id()))
        .attr("kind", e.kind().kind_name())
        .attr("name", e.name().to_owned())
        .attr("visibility", vis_str(e.core().visibility));
    if let Some(o) = e.owner() {
        node = node.attr("owner", id_str(o));
    }
    if !e.core().doc.is_empty() {
        node = node.attr("doc", e.core().doc.clone());
    }
    for s in &e.core().stereotypes {
        node = node.child(XmlNode::new("UML:Stereotype").attr("name", s.clone()));
    }
    for (k, v) in &e.core().tags {
        node = node.child(tag_value_node("UML:TaggedValue", v).attr("key", k.clone()));
    }
    match e.kind() {
        ElementKind::Package(_) | ElementKind::Interface(_) | ElementKind::DataType(_) => {}
        ElementKind::Class(c) => {
            node = node
                .attr("isAbstract", c.is_abstract.to_string())
                .attr("isActive", c.is_active.to_string());
        }
        ElementKind::Enumeration(en) => {
            for l in &en.literals {
                node = node.child(XmlNode::new("UML:Literal").attr("name", l.clone()));
            }
        }
        ElementKind::Attribute(a) => {
            node = node
                .attr("type", type_str(a.ty))
                .attr("multiplicity", mult_str(a.multiplicity))
                .attr("isStatic", a.is_static.to_string())
                .attr("isReadOnly", a.is_read_only.to_string());
            if let Some(d) = &a.default {
                node = node.attr("default", d.clone());
            }
        }
        ElementKind::Operation(o) => {
            node = node
                .attr("returnType", type_str(o.return_type))
                .attr("isStatic", o.is_static.to_string())
                .attr("isAbstract", o.is_abstract.to_string())
                .attr("isQuery", o.is_query.to_string());
        }
        ElementKind::Parameter(p) => {
            node = node.attr("type", type_str(p.ty)).attr(
                "direction",
                match p.direction {
                    Direction::In => "in",
                    Direction::Out => "out",
                    Direction::InOut => "inout",
                    Direction::Return => "return",
                },
            );
        }
        ElementKind::Association(a) => {
            node = node.child(end_node(&a.ends[0])).child(end_node(&a.ends[1]));
        }
        ElementKind::Generalization(g) => {
            node = node.attr("child", id_str(g.child)).attr("parent", id_str(g.parent));
        }
        ElementKind::Dependency(d) => {
            node = node.attr("client", id_str(d.client)).attr("supplier", id_str(d.supplier));
        }
        ElementKind::Constraint(c) => {
            node = node.attr("constrained", id_str(c.constrained)).attr("body", c.body.clone());
        }
    }
    node
}

/// Exports `model` through the owned node tree.
pub fn export_model_tree(model: &Model) -> String {
    let mut content = XmlNode::new("UML:Model")
        .attr("name", model.name().to_owned())
        .attr("root", id_str(model.root()));
    for e in model.iter() {
        content = content.child(element_node(e));
    }
    let doc = XmlNode::new("XMI")
        .attr("xmi.version", "1.2")
        .attr("xmlns:UML", "org.omg.xmi.namespace.UML")
        .child(
            XmlNode::new("XMI.header")
                .child(XmlNode::new("XMI.documentation").attr("exporter", "comet-xmi")),
        )
        .child(XmlNode::new("XMI.content").child(content));
    write_xml(&doc)
}
